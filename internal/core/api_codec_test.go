package core_test

import (
	"bytes"
	"reflect"
	"testing"

	apiv1 "vcache/api/v1"
	"vcache/internal/core"
)

// TestAPIResultsRoundTrip: the service's canonical results document is
// core's encoding, so the round-trip cases come back exactly through
// apiv1 too, lifetime CDFs included.
func TestAPIResultsRoundTrip(t *testing.T) {
	for name, r := range core.RoundTripCases() {
		b := apiv1.EncodeResults(r)
		if !bytes.Equal(b, core.EncodeResults(r)) {
			t.Fatalf("%s: apiv1 and core encode differently", name)
		}
		got, err := apiv1.DecodeResults(b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(r, got) {
			t.Fatalf("%s: apiv1 round trip changed Results:\n in: %+v\nout: %+v", name, r, got)
		}
	}
}
