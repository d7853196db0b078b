// Package version is the single source of the build's identity stamp:
// the module version plus a fingerprint of the simulation model's fixed
// parameters (device timing/geometry defaults, interleaving schemes,
// registered controllers, stall taxonomy). Every cmd surfaces it behind
// -version, and the result cache embeds it in its keys so cached outcomes
// from an older model never masquerade as current ones — bump Semver (or
// change any fingerprinted parameter) and every key changes.
package version

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime/debug"
	"strings"
	"sync"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/engine"
	"rdramstream/internal/rdram"
	"rdramstream/internal/telemetry"
)

// Module is the module path the stamp reports.
const Module = "rdramstream"

// Semver is the module version. It is bumped whenever simulated outcomes
// may change; the result cache treats any change as a full invalidation.
const Semver = "0.6.0"

// Fingerprint hashes the model parameters that determine simulated
// outcomes: the default device configuration, the packet constants, the
// interleaving schemes, the registered controller set, and the
// stall-cause taxonomy. It is computed at call time, so a binary that
// links extra controllers fingerprints differently from one that does
// not — their caches are intentionally disjoint.
func Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "device=%+v\n", rdram.DefaultConfig())
	fmt.Fprintf(&b, "wordsPerPacket=%d maxOutstanding=%d\n", rdram.WordsPerPacket, rdram.MaxOutstanding)
	fmt.Fprintf(&b, "schemes=%v/%v\n", addrmap.CLI, addrmap.PI)
	fmt.Fprintf(&b, "controllers=%v\n", engine.Names())
	fmt.Fprintf(&b, "stalls=%v\n", telemetry.StallCauses())
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:6])
}

// Stamp is the one-line identity every cmd prints for -version and the
// result cache embeds in its keys: module, semver, model fingerprint, and
// (when the binary carries build info) the VCS module version.
//
// It is computed once per process, on first use (after every package's
// init has registered its controllers): every cache key embeds it, and
// rebuilding it formats the model, hashes it and parses the build info.
func Stamp() string { return stamp() }

var stamp = sync.OnceValue(func() string {
	s := fmt.Sprintf("%s %s model=%s", Module, Semver, Fingerprint())
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		s += " build=" + bi.Main.Version
	}
	return s
})
