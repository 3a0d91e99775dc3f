package core

import (
	"encoding/json"
	"fmt"
	"strconv"
)

// kindNames maps each MMU design to its canonical wire name (the same
// strings MMUKind.String returns). The api/v1 job schema and vcsim -json
// both speak these names; unknown kinds fall back to their integer value so
// arbitrary (e.g. future) kinds still round-trip.
var kindNames = map[MMUKind]string{
	IdealMMU:         "ideal-mmu",
	PhysicalBaseline: "physical-baseline",
	VirtualHierarchy: "virtual-hierarchy",
	L1OnlyVirtual:    "l1-only-virtual",
}

var kindValues = func() map[string]MMUKind {
	m := make(map[string]MMUKind, len(kindNames))
	for k, n := range kindNames {
		m[n] = k
	}
	return m
}()

// MarshalJSON encodes known MMU kinds by name ("virtual-hierarchy") and
// unknown ones as their integer value. The names need no JSON escaping,
// so quoting them is what json.Marshal would write.
func (k MMUKind) MarshalJSON() ([]byte, error) {
	if n, ok := kindNames[k]; ok {
		return strconv.AppendQuote(nil, n), nil
	}
	return strconv.AppendInt(nil, int64(k), 10), nil
}

// UnmarshalJSON accepts both the canonical name and the integer form.
func (k *MMUKind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, ok := kindValues[s]
		if !ok {
			return fmt.Errorf("core: unknown MMU kind %q", s)
		}
		*k = v
		return nil
	}
	n, err := strconv.Atoi(string(b))
	if err != nil {
		return fmt.Errorf("core: MMU kind must be a name or integer, got %s", b)
	}
	*k = MMUKind(n)
	return nil
}
