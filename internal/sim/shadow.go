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
// s, through the mapper, recording each value in img, the golden image
// verify replays the kernel over. The draw order — one rng draw per
// previously unseen address, in stream then element order — is part of
// the pinned golden results and must never change. rng is reseeded here;
// passing the same generator run after run saves its allocation.
func seed(dev *rdram.Device, m *addrmap.Mapper, k *stream.Kernel, s int64, rng *rand.Rand, img *engine.Image) {
	rng.Seed(s + 1)
	img.Reset(k)
	for _, st := range k.Streams {
		for i := 0; i < st.Length; i++ {
			addr := st.Addr(i)
			if _, ok := img.Get(addr); ok {
				continue
			}
			// Keep magnitudes small so float arithmetic is exact and the
			// comparison is bit-precise.
			v := math.Float64bits(float64(rng.Intn(1024)) / 8)
			loc := m.Map(addr)
			dev.PokeWord(loc.Bank, loc.Row, loc.Col, loc.Word, v)
			img.Set(addr, v)
		}
	}
}

// verify replays the kernel over the seeded image and compares every
// word in it with the device contents, in address order, so a failure
// names the lowest mismatched address. Every address the kernel touches
// was seeded, so the replay's loads always hit the image.
func verify(dev *rdram.Device, m *addrmap.Mapper, k *stream.Kernel, img *engine.Image) error {
	k.Replay(
		func(addr int64) uint64 {
			v, _ := img.Get(addr)
			return v
		},
		img.Set,
	)
	var err error
	img.Range(func(addr int64, want uint64) bool {
		loc := m.Map(addr)
		if got := dev.PeekWord(loc.Bank, loc.Row, loc.Col, loc.Word); got != want {
			err = fmt.Errorf("sim: functional verification failed: address %d: device %#x, golden %#x", addr, got, want)
			return false
		}
		return true
	})
	return err
}
