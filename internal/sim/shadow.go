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

// seedGolden fills every stream element with a deterministic value
// derived from s, through the image's walk over the device, recording
// each value in img, then replays the kernel over img alone. img is then
// the golden image: the controller's write lines carry it
// (engine.Options.Store), and verify compares the device with it after
// the run. The draw order — one rng draw per previously unseen address,
// in stream then element order — is part of the pinned golden results
// and must never change. rng is reseeded here; passing the same generator
// run after run saves its allocation.
func seedGolden(dev *rdram.Device, m *addrmap.Mapper, k *stream.Kernel, s int64, rng *rand.Rand, img *engine.Image) {
	rng.Seed(s + 1)
	img.Seed(dev, m, k, func() uint64 {
		// rng.Intn(1024) with its call frames removed: Intn(n) for a
		// power-of-two n is Int31()&(n-1), and Int31 is Int63()>>32.
		// Magnitudes stay small so float arithmetic is exact and the
		// comparison is bit-precise.
		return math.Float64bits(float64(rng.Int63()>>32&1023) / 8)
	})
	img.Replay(k)
}

// verify compares every word of the golden image with the device
// contents, in address order, so a failure names the lowest mismatched
// address.
func verify(dev *rdram.Device, m *addrmap.Mapper, img *engine.Image) error {
	if addr, got, want, found := img.Mismatch(dev, m); found {
		return fmt.Errorf("sim: functional verification failed: address %d: device %#x, golden %#x", addr, got, want)
	}
	return nil
}
