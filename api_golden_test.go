package vcache

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"sort"
	"strings"
	"testing"
)

// apiGolden is the package's committed public surface: every exported
// top-level identifier, sorted. The facade is the repo's compatibility
// contract, so any change here — additions included — must be deliberate:
// update this list in the same commit and call the change out in review.
var apiGolden = []string{
	"const IdealMMU",
	"const JobAPIVersion",
	"const L1OnlyVirtual",
	"const PermRead",
	"const PermWrite",
	"const PhysicalBaseline",
	"const VirtualHierarchy",
	"func BuildWorkload",
	"func DefaultArtifactCacheDir",
	"func DefaultParams",
	"func ExperimentIDs",
	"func HighBandwidthWorkloads",
	"func LoadTrace",
	"func NewExperimentSuite",
	"func NewJobClient",
	"func NewJobServer",
	"func OpenArtifactCache",
	"func NewSystem",
	"func NewTraceBuilder",
	"func NewTraceBuilderASID",
	"func NewTraceWriter",
	"func Run",
	"func RunContext",
	"func Serve",
	"func Workloads",
	"type ASID",
	"type ArtifactCache",
	"type Config",
	"type ConfigError",
	"type DesignSpec",
	"type EventSink",
	"type ExperimentSuite",
	"type FaultCounts",
	"type Generator",
	"type JobClient",
	"type JobEvent",
	"type JobInfo",
	"type JobQueueInfo",
	"type JobServer",
	"type JobServerOptions",
	"type JobSpec",
	"type JobState",
	"type Latencies",
	"type Lifetimes",
	"type MMUKind",
	"type MetricsRegistry",
	"type MetricsSnapshot",
	"type Option",
	"type Params",
	"type Perm",
	"type ProbeBreakdown",
	"type Progress",
	"type ProgressFunc",
	"type Results",
	"type RunEvent",
	"type ServiceHealth",
	"type System",
	"type Trace",
	"type TraceBuilder",
	"type TraceEvent",
	"type TraceWriter",
	"type VAddr",
	"type WorkloadSpec",
	"var DecodeJobSpec",
	"var DesignBaseline16K",
	"var DesignBaseline512",
	"var DesignBaselineLargePerCU",
	"var DesignIdeal",
	"var DesignL1OnlyVC",
	"var DesignVC",
	"var DesignVCOpt",
	"var DesignVCOptDSR",
	"var ProgressWriter",
	"var WithEventTrace",
	"var WithMetricsInterval",
	"var WithMetricsSink",
	"var WithMetricsSnapshot",
	"var WithProgress",
}

// exportedAPI parses the package's non-test sources and returns every
// exported top-level identifier, each prefixed with its declaration kind.
func exportedAPI(t *testing.T) []string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	pkg, ok := pkgs["vcache"]
	if !ok {
		t.Fatalf("package vcache not found in .; got %v", pkgs)
	}
	var out []string
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					out = append(out, "func "+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							out = append(out, "type "+s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								out = append(out, d.Tok.String()+" "+n.Name)
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// TestPublicAPIGolden fails `go test ./...` whenever the facade's exported
// surface drifts from apiGolden, catching both accidental removals (a
// breaking change for downstream users) and unreviewed additions.
func TestPublicAPIGolden(t *testing.T) {
	got := exportedAPI(t)
	want := apiGolden
	gotSet := make(map[string]bool, len(got))
	for _, id := range got {
		gotSet[id] = true
	}
	wantSet := make(map[string]bool, len(want))
	for _, id := range want {
		wantSet[id] = true
	}
	for _, id := range want {
		if !gotSet[id] {
			t.Errorf("removed from public API: %s", id)
		}
	}
	for _, id := range got {
		if !wantSet[id] {
			t.Errorf("added to public API without updating apiGolden: %s", id)
		}
	}
	if t.Failed() {
		t.Log("if the change is intentional, update apiGolden in api_golden_test.go")
	}
}
