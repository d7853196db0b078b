package engine

import (
	"sort"
	"sync"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/cache"
	"rdramstream/internal/rdram"
	"rdramstream/internal/stream"
	"rdramstream/internal/telemetry"
)

// Options is the controller-independent configuration a scenario hands to
// whichever controller it selects. Fields a controller does not understand
// are ignored (e.g. FIFODepth for the natural-order controller).
type Options struct {
	// Scheme pairs the interleaving with its precharge policy as in the
	// paper: CLI closed-page, PI open-page.
	Scheme addrmap.Scheme
	// LineWords is the cacheline size in 64-bit words.
	LineWords int
	// FIFODepth is the per-stream SBU depth for FIFO-based controllers.
	FIFODepth int
	// Policy selects a controller-specific scheduling policy by ordinal
	// (e.g. the SMC's round-robin / bank-aware / hit-first).
	Policy int
	// SpeculateActivate enables the SMC's page-crossing extension.
	SpeculateActivate bool
	// WriteAllocate selects fetch-on-store-miss for cacheline controllers.
	WriteAllocate bool
	// Cache, when non-nil, puts a real set-associative cache in front of
	// controllers that support one.
	Cache *cache.Config
	// Store, when non-nil, is the run's golden image (Image.Replay): the
	// values the cacheline controllers' write lines carry (Lines.Store).
	// Nil means write lines carry no computed data, as on a timing-only
	// device. Controllers whose stores come from the data they read (the
	// SMC) ignore it.
	Store *Image
	// Telemetry, when non-nil, instruments the run (see Attach).
	Telemetry *telemetry.Collector
	// WatchdogLimit is the forward-progress bound, in cycles: a controller
	// loop that retires no useful word for this long aborts with a
	// *WatchdogError instead of spinning. Zero means DefaultWatchdogLimit;
	// only fault-injected devices can normally trip it.
	WatchdogLimit int64
}

// Controller is one access-ordering policy: it drives a kernel's accesses
// against a device and reports the common Result. Implementations must be
// safe for concurrent Run calls on distinct devices — the sweep executor
// runs scenarios in parallel.
type Controller interface {
	// Name is the registry key (e.g. "natural-order", "smc").
	Name() string
	// Run simulates the kernel over the device, reading and writing device
	// storage functionally so callers can verify the computation.
	Run(dev *rdram.Device, k *stream.Kernel, opt Options) (Result, error)
}

var (
	regMu    sync.RWMutex
	registry = map[string]Controller{}
)

// Register adds a controller under its name; registering the same name
// twice panics (two policies claiming one name is a programming error).
// Controller packages self-register from init, so importing a controller
// package is what makes its name resolvable.
func Register(c Controller) {
	regMu.Lock()
	defer regMu.Unlock()
	name := c.Name()
	if _, dup := registry[name]; dup {
		panic("engine: duplicate controller " + name)
	}
	registry[name] = c
}

// Lookup resolves a registered controller by name.
func Lookup(name string) (Controller, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	c, ok := registry[name]
	return c, ok
}

// Names lists the registered controllers, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
