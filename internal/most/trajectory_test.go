package most

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestHybridTrajectoryPinned holds the production configuration of Fig. 9
// (Shore-Western rig, Mplugin simulation, xPC target) to recorded digests of
// its 300-step history, with sensor noise off and on. The rigs draw their
// noise per command, so a change to how commands reach them — batching,
// pipelining, a different wake-up — that reorders or adds a draw, or moves
// a value, shows here as a different digest.
func TestHybridTrajectoryPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("two 300-step hybrid runs")
	}
	for _, tc := range []struct {
		name   string
		noisy  bool
		digest string
	}{
		{"quiet", false, "a50fdd6ab2f1b0b0ba1e97e3cdf621704020a8a2978c939b9120678cf8b72626"},
		{"noisy", true, "cf323e15039d77475b0110ec6e039765425f6f623a14767c2c4410aba269418a"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := DryRunSpec(VariantHybrid)
			spec.Steps = 300
			for i := range spec.Sites {
				spec.Sites[i].Noisy = tc.noisy
			}
			_, res := runSpec(t, spec)
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			var buf bytes.Buffer
			if err := res.History.WriteCSV(&buf); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != tc.digest {
				t.Fatalf("history digest %s, want %s", got, tc.digest)
			}
		})
	}
}
