package engine

import (
	"reflect"
	"testing"

	"rdramstream/internal/rdram"
	"rdramstream/internal/telemetry"
)

// TestBankTrackFallback pins one capture track per bank for every bank of
// the geometry: a 32-bank channel (four chips) draws banks 16–31 on
// tracks of their own, not on one shared fallback track.
func TestBankTrackFallback(t *testing.T) {
	cfg := rdram.DefaultConfig()
	cfg.Geometry.Banks *= 4
	cfg.Geometry.DevicesOnChannel = 4
	dev := rdram.NewDevice(cfg)
	col := telemetry.New(telemetry.Options{CaptureEvents: true})
	Attach(dev, col, telemetry.StallNoRequest)
	for _, b := range []int{0, 3, 15, 16, 17, 31} {
		dev.ActivateBank(b, 0, int64(b))
	}
	var got []string
	for _, ev := range col.Events.Events {
		if ev.Name != "ACT" {
			t.Errorf("event %+v, want only ACT packets", ev)
		}
		got = append(got, ev.Track)
	}
	want := []string{"bank 0", "bank 3", "bank 15", "bank 16", "bank 17", "bank 31"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("tracks = %q, want %q", got, want)
	}
}
