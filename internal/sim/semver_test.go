package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"rdramstream/internal/version"
)

// The module version and the outcomes it was pinned with: a SHA-256 over
// the encoded outcomes of TestGoldenParity's rows.
const (
	pinnedSemver      = "0.6.0"
	pinnedOutcomeHash = "0f3a457904fd9a2467441ab16904730afda90accb2682f5d669a7e01274e129b"
)

// TestSemverGuard ties simulated outcomes to version.Semver. The result
// cache keys every entry on Semver, so outcomes that move under an
// unchanged Semver would be served stale, as current, from a cache filled
// by the old model. It hashes the golden rows' outcomes in the encoding
// the cache stores (resultcache.Encode's) and fails when the hash moves
// and Semver does not.
func TestSemverGuard(t *testing.T) {
	h := sha256.New()
	for _, g := range goldenRows {
		sc, err := g.scenario()
		if err != nil {
			t.Fatal(err)
		}
		out, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.MarshalIndent(out, "  ", "  ")
		if err != nil {
			t.Fatal(err)
		}
		h.Write(append(b, '\n'))
	}
	got := hex.EncodeToString(h.Sum(nil))
	switch {
	case version.Semver == pinnedSemver && got != pinnedOutcomeHash:
		t.Errorf("the golden rows' outcomes moved (sha256 %s, pinned %s) under version.Semver %s: bump version.Semver, then pin the new version and hash here", got, pinnedOutcomeHash, pinnedSemver)
	case version.Semver != pinnedSemver:
		t.Errorf("version.Semver is %s, pinned %s: pin the new version here with its outcome hash %s", version.Semver, pinnedSemver, got)
	}
}
