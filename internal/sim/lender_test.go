package sim_test

import (
	"slices"
	"testing"

	"insitubits/internal/sim"
	"insitubits/internal/sim/heat3d"
	"insitubits/internal/sim/lulesh"
)

// Both shipped simulators lend. Step and StepLent are one physics path: two
// instances advanced in lockstep, one by each call, agree element for
// element at every step; what StepLent returns aliases the simulator's
// state (it is not a second copy); and what Step returns belongs to the
// caller — later steps leave it exactly as it was handed over.
func TestStepIsCloneOfStepLent(t *testing.T) {
	for name, mk := range map[string]func() sim.Lender{
		"heat3d": func() sim.Lender { h, _ := heat3d.New(9, 8, 7); return h },
		"lulesh": func() sim.Lender { l, _ := lulesh.New(6, 5, 7); return l },
	} {
		owner, lender := mk(), mk()
		type kept struct{ handed, snapshot []sim.Field }
		var history []kept
		for step := 0; step < 10; step++ {
			owned, lent := owner.Step(2), lender.StepLent(2)
			if len(owned) != len(owner.Vars()) || len(lent) != len(owned) {
				t.Fatalf("%s step %d: %d owned and %d lent fields for %d variables", name, step, len(owned), len(lent), len(owner.Vars()))
			}
			for k := range owned {
				if owned[k].Name != lent[k].Name || owned[k].Name != owner.Vars()[k] {
					t.Fatalf("%s step %d: field %d is %q owned, %q lent", name, step, k, owned[k].Name, lent[k].Name)
				}
				if !slices.Equal(owned[k].Data, lent[k].Data) {
					t.Fatalf("%s step %d: %s differs between Step and StepLent", name, step, owned[k].Name)
				}
			}
			history = append(history, kept{owned, sim.CloneFields(owned)})
		}
		for step, h := range history {
			for k := range h.handed {
				if !slices.Equal(h.handed[k].Data, h.snapshot[k].Data) {
					t.Fatalf("%s: the %s array Step returned at step %d was changed by later steps", name, h.handed[k].Name, step)
				}
			}
		}
		// A lent array is the simulator's own: its next lent step either
		// returns the same array updated in place (lulesh) or has moved on to
		// the other buffer (heat3d) — never a fresh allocation per step.
		seen := map[*float64]bool{}
		for step := 0; step < 6; step++ {
			seen[&lender.StepLent(1)[0].Data[0]] = true
		}
		if len(seen) > 2 {
			t.Fatalf("%s: %d distinct arrays lent over 6 steps: StepLent is copying", name, len(seen))
		}
	}
}
