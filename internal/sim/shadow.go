package sim

import (
	"fmt"
	"math"
	"math/rand"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/engine"
	"rdramstream/internal/rdram"
	"rdramstream/internal/stream"
)

// seed fills every stream element with a deterministic value derived from
// s, through the image's walk over the device, recording each value in
// img, the golden image verify replays the kernel over. The draw order —
// one rng draw per previously unseen address, in stream then element
// order — is part of the pinned golden results and must never change.
// rng is reseeded here; passing the same generator run after run saves
// its allocation.
func seed(dev *rdram.Device, m *addrmap.Mapper, k *stream.Kernel, s int64, rng *rand.Rand, img *engine.Image) {
	rng.Seed(s + 1)
	img.Seed(dev, m, k, func() uint64 {
		// Keep magnitudes small so float arithmetic is exact and the
		// comparison is bit-precise.
		return math.Float64bits(float64(rng.Intn(1024)) / 8)
	})
}

// verify replays the kernel over the seeded image alone and compares
// every word in it with the device contents, in address order, so a
// failure names the lowest mismatched address. Every address the kernel
// touches was seeded, so the replay's loads always hit the image.
func verify(dev *rdram.Device, m *addrmap.Mapper, k *stream.Kernel, img *engine.Image) error {
	img.Replay(k)
	if addr, got, want, found := img.Mismatch(dev, m); found {
		return fmt.Errorf("sim: functional verification failed: address %d: device %#x, golden %#x", addr, got, want)
	}
	return nil
}
