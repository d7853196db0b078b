package rdram

import "fmt"

// Geometry describes the bank/page organization of the device.
//
// The paper's experiments use a 64 Mbit part with eight independent banks
// and 1 KByte pages (128 64-bit words per page). Some RDRAM cores double
// the bank count to 16 with shared sense amplifiers between adjacent banks
// ("double bank" architecture); because two adjacent banks cannot be open
// simultaneously, the effective independence is still eight. Set DoubleBank
// to model the adjacency constraint explicitly.
type Geometry struct {
	// Banks is the total number of banks addressable on the channel
	// (banks per device × DevicesOnChannel).
	Banks int `json:"Banks"`
	// PageWords is the number of 64-bit words per DRAM page (sense-amp row).
	PageWords int `json:"PageWords"`
	// PagesPerBank is the number of rows in each bank.
	PagesPerBank int `json:"PagesPerBank"`
	// DoubleBank, when true, forbids adjacent banks (2k, 2k+1 pairs sharing
	// sense amps) from being open at the same time.
	DoubleBank bool `json:"DoubleBank"`
	// DevicesOnChannel models a Rambus channel populated with several
	// RDRAM chips sharing the ROW/COL/DATA buses. Device-local constraints
	// — the t_RR spacing between ROW ACT packets and the write-buffer
	// retire before a read — apply within each device only; bus occupancy
	// and the read/write turnaround remain channel-global. Zero or one
	// means a single device, as in the paper's evaluation.
	DevicesOnChannel int `json:"DevicesOnChannel"`
}

// DefaultGeometry returns the organization used throughout the paper's
// evaluation: eight independent banks with 1 KByte (128-word) pages. The
// row count is sized so the device holds 64 Mbit like the parts the paper
// describes.
func DefaultGeometry() Geometry {
	return Geometry{
		Banks:        8,
		PageWords:    128,
		PagesPerBank: 8192, // 8 banks * 8192 rows * 1 KB = 64 Mbit
	}
}

// MaxPages bounds Banks*PagesPerBank: the functional store indexes pages
// through a dense table of that many entries (16 MiB at the limit, 256
// KiB for the default part). It is 64 default chips' worth of pages.
const MaxPages = 1 << 22

// Validate reports whether the geometry is usable.
func (g Geometry) Validate() error {
	switch {
	case g.Banks <= 0:
		return fmt.Errorf("rdram: Banks must be positive, got %d", g.Banks)
	case g.PageWords <= 0 || g.PageWords%WordsPerPacket != 0:
		return fmt.Errorf("rdram: PageWords must be a positive multiple of %d, got %d", WordsPerPacket, g.PageWords)
	case g.PagesPerBank <= 0:
		return fmt.Errorf("rdram: PagesPerBank must be positive, got %d", g.PagesPerBank)
	case g.PagesPerBank > MaxPages/g.Banks:
		return fmt.Errorf("rdram: %d banks of %d pages exceed the %d-page limit", g.Banks, g.PagesPerBank, MaxPages)
	case g.DoubleBank && g.Banks%2 != 0:
		return fmt.Errorf("rdram: DoubleBank requires an even bank count, got %d", g.Banks)
	case g.DevicesOnChannel < 0:
		return fmt.Errorf("rdram: DevicesOnChannel must be non-negative, got %d", g.DevicesOnChannel)
	case g.DevicesOnChannel > 1 && g.Banks%g.DevicesOnChannel != 0:
		return fmt.Errorf("rdram: %d banks do not divide evenly over %d devices", g.Banks, g.DevicesOnChannel)
	case g.DevicesOnChannel > 1 && g.DoubleBank && (g.Banks/g.DevicesOnChannel)%2 != 0:
		return fmt.Errorf("rdram: DoubleBank requires an even bank count per device")
	}
	return nil
}

// Devices returns the number of chips on the channel (at least one).
func (g Geometry) Devices() int {
	if g.DevicesOnChannel <= 1 {
		return 1
	}
	return g.DevicesOnChannel
}

// BanksPerDevice returns the banks local to one chip.
func (g Geometry) BanksPerDevice() int { return g.Banks / g.Devices() }

// deviceOf returns the chip that owns bank b.
func (g Geometry) deviceOf(b int) int { return b / g.BanksPerDevice() }

// Pages returns the number of pages on the channel: the size of the
// device's functional-store page table.
func (g Geometry) Pages() int { return g.Banks * g.PagesPerBank }

// CapacityWords is the total number of 64-bit words the device stores.
func (g Geometry) CapacityWords() int {
	return g.Banks * g.PagesPerBank * g.PageWords
}

// adjacent returns the banks that share sense amplifiers with bank b under
// the double-bank constraint. With DoubleBank disabled it returns nothing.
func (g Geometry) adjacent(b int) []int {
	if !g.DoubleBank {
		return nil
	}
	if b%2 == 0 {
		return []int{b + 1}
	}
	return []int{b - 1}
}

// Config bundles the timing and geometry of one device.
type Config struct {
	Timing   Timing   `json:"Timing"`
	Geometry Geometry `json:"Geometry"`
	// RefreshInterval, when positive, inserts a refresh operation (an
	// activate/precharge pair that steals the row bus and blocks one bank)
	// every RefreshInterval cycles, cycling through the banks. The paper's
	// models ignore refresh; this is an ablation knob and defaults to off.
	RefreshInterval int64 `json:"RefreshInterval"`
}

// DefaultConfig returns the paper's device: -50/-800 timing, eight banks,
// 1 KB pages, refresh disabled.
func DefaultConfig() Config {
	return Config{Timing: DefaultTiming(), Geometry: DefaultGeometry()}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if err := c.Timing.Validate(); err != nil {
		return err
	}
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	if c.RefreshInterval < 0 {
		return fmt.Errorf("rdram: RefreshInterval must be non-negative, got %d", c.RefreshInterval)
	}
	return nil
}
