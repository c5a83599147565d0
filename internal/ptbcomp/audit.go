package ptbcomp

import (
	"fmt"

	"tmcc/internal/config"
)

// Fit proves that a PTB holding ptes with the embedded slots s fits the
// hardware's 64B block: the PTEs must compress, Pack must fit them with
// the slots within ptbBits, and Unpack must reproduce the status bits,
// every truncated PPN, and each embedded CTE slot the geometry keeps.
// The simulator runs it under the tmccdebug build tag once per PTB its
// warmup embeds into.
func (c Config) Fit(ptes *[8]uint64, s *Slots) error {
	cp, ok := c.Compress(ptes)
	if !ok {
		return fmt.Errorf("PTB %#x is not compressible", *ptes)
	}
	cp.Slots = *s
	raw, err := c.Pack(cp)
	if err != nil {
		return err
	}
	if len(raw) != config.BlockSize {
		return fmt.Errorf("packed PTB is %dB, want %d", len(raw), config.BlockSize)
	}
	got, err := c.Unpack(raw)
	if err != nil {
		return err
	}
	if got.Status != cp.Status {
		return fmt.Errorf("status %#x round-tripped to %#x", cp.Status, got.Status)
	}
	for i := range cp.PPNs {
		if got.PPNs[i] != cp.PPNs[i] {
			return fmt.Errorf("ppn[%d] %#x round-tripped to %#x", i, cp.PPNs[i], got.PPNs[i])
		}
	}
	for i := 0; i < c.MaxEmbeddable(); i++ {
		if got.HasCTE[i] != cp.HasCTE[i] || got.CTEs[i] != cp.CTEs[i] {
			return fmt.Errorf("cte[%d] (%v, %#x) round-tripped to (%v, %#x)",
				i, cp.HasCTE[i], cp.CTEs[i], got.HasCTE[i], got.CTEs[i])
		}
	}
	return nil
}
