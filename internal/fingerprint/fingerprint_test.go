package fingerprint

import (
	"reflect"
	"strings"
	"testing"
)

type inner struct {
	A int
	B string
}

type outer struct {
	X     uint64
	Y     float64
	In    inner
	Ptr   *inner
	List  []int
	Flag  bool
	Bytes []byte
}

// TestHashFramesParts: the domain and every part boundary are framed, so
// moving bytes across a boundary, between the domain and the first part,
// or into an extra empty part changes the sum.
func TestHashFramesParts(t *testing.T) {
	b := func(s string) []byte { return []byte(s) }
	sums := map[string]Sum{
		"d|ab|c":  Hash("d", b("ab"), b("c")),
		"d|a|bc":  Hash("d", b("a"), b("bc")),
		"d|abc":   Hash("d", b("abc")),
		"da|bc":   Hash("da", b("bc")),
		"d|ab|c|": Hash("d", b("ab"), b("c"), nil),
		"e|ab|c":  Hash("e", b("ab"), b("c")),
		"d":       Hash("d"),
		"d|":      Hash("d", nil),
		"":        Hash(""),
	}
	seen := make(map[Sum]string)
	for name, s := range sums {
		if prev, ok := seen[s]; ok {
			t.Errorf("Hash(%s) == Hash(%s)", name, prev)
		}
		seen[s] = name
	}
	if Hash("d", b("ab"), b("c")) != sums["d|ab|c"] {
		t.Fatal("Hash is not deterministic")
	}
}

func TestPaths(t *testing.T) {
	got := Paths(reflect.TypeOf(outer{}))
	want := []string{
		"outer.Bytes[] uint8",
		"outer.Flag bool",
		"outer.In.A int",
		"outer.In.B string",
		"outer.List[] int",
		"outer.Ptr[].A int",
		"outer.Ptr[].B string",
		"outer.X uint64",
		"outer.Y float64",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("paths mismatch:\ngot:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
