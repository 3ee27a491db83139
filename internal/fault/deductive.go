package fault

import (
	"context"
	"math/bits"

	"dft/internal/logic"
	"dft/internal/telemetry"
)

// DeductiveSim implements Armstrong's deductive fault simulation
// ([100] in the paper): one true-value pass per pattern during which
// each net carries the *list* of faults that would complement it.
// All faults are processed simultaneously per pattern — the historical
// alternative to parallel-pattern simulation, reproduced here with
// bitset fault lists.
//
// Propagation rules (exact under the single-fault assumption):
//
//   - a source net n with value v contributes its own stem fault s-a-¬v;
//   - each gate input pin adds its branch fault s-a-¬v to the incoming
//     list;
//   - AND-type gate with controlling inputs S: the output flips iff a
//     fault flips every pin in S and no pin outside S, so
//     L = (∩_{S}) \ (∪_{¬S});
//   - AND-type gate with no controlling input: any single flipped pin
//     flips the output, so L = ∪ over pins;
//   - XOR-type gate: the output flips iff an odd number of pins flip,
//     the symmetric difference of the pin lists;
//   - every gate adds its own output stem fault s-a-¬v.
type DeductiveSim struct {
	c       *logic.Circuit
	faults  []Fault
	index   map[Fault]int
	words   int
	lists   [][]uint64 // per net
	vals    []bool
	inputs  []int // view inputs, driven by the pattern
	others  []int // source elements outside the view, held at 0
	outputs []int // view outputs, where detection is observed
	// scratch
	acc, tmp []uint64
	pinVals  []bool
}

// NewDeductiveSim prepares a simulator for the fault list under the
// primary view (patterns over c.PIs, detection at c.POs).
func NewDeductiveSim(c *logic.Circuit, faults []Fault) *DeductiveSim {
	return NewDeductiveSimView(c, c.PIs, c.POs, faults)
}

// NewDeductiveSimView prepares a simulator with explicit controllable
// and observable nets, following the same view conventions as
// ParallelSim: every input must be a source element, and source
// elements outside the view are held at 0.
func NewDeductiveSimView(c *logic.Circuit, inputs, outputs []int, faults []Fault) *DeductiveSim {
	ds := &DeductiveSim{
		c:       c,
		faults:  faults,
		index:   make(map[Fault]int, len(faults)),
		words:   (len(faults) + 63) / 64,
		inputs:  append([]int(nil), inputs...),
		outputs: append([]int(nil), outputs...),
	}
	for i, f := range faults {
		ds.index[f] = i
	}
	driven := make(map[int]bool, len(inputs))
	for _, in := range inputs {
		if c.Gates[in].Type.IsCombinational() {
			panic("fault: view input " + c.NameOf(in) + " is not a source element")
		}
		driven[in] = true
	}
	for _, id := range c.PIs {
		if !driven[id] {
			ds.others = append(ds.others, id)
		}
	}
	for _, id := range c.DFFs {
		if !driven[id] {
			ds.others = append(ds.others, id)
		}
	}
	ds.lists = make([][]uint64, c.NumNets())
	for i := range ds.lists {
		ds.lists[i] = make([]uint64, ds.words)
	}
	ds.vals = make([]bool, c.NumNets())
	ds.acc = make([]uint64, ds.words)
	ds.tmp = make([]uint64, ds.words)
	ds.pinVals = make([]bool, c.MaxFanin())
	return ds
}

func (ds *DeductiveSim) setBit(dst []uint64, f Fault) {
	if i, ok := ds.index[f]; ok {
		dst[i/64] |= 1 << uint(i%64)
	}
}

func clearWords(w []uint64) {
	for i := range w {
		w[i] = 0
	}
}

func copyWords(dst, src []uint64) { copy(dst, src) }

func orWords(dst, src []uint64) {
	for i := range dst {
		dst[i] |= src[i]
	}
}

func andWords(dst, src []uint64) {
	for i := range dst {
		dst[i] &= src[i]
	}
}

func andNotWords(dst, src []uint64) {
	for i := range dst {
		dst[i] &^= src[i]
	}
}

func xorWords(dst, src []uint64) {
	for i := range dst {
		dst[i] ^= src[i]
	}
}

// Pattern runs one deductive pass, returning the bitset of faults
// detected at the view outputs (valid until the next call).
func (ds *DeductiveSim) Pattern(pi []bool) []uint64 {
	c := ds.c
	for i, id := range ds.inputs {
		ds.vals[id] = pi[i]
		clearWords(ds.lists[id])
		ds.setBit(ds.lists[id], Fault{id, Stem, logic.FromBool(!pi[i])})
	}
	for _, id := range ds.others {
		ds.vals[id] = false // held at the reset state
		clearWords(ds.lists[id])
		ds.setBit(ds.lists[id], Fault{id, Stem, logic.One})
	}
	scratch := ds.pinVals
	pinList := ds.tmp
	for _, id := range c.Order {
		g := &c.Gates[id]
		out := ds.lists[id]
		clearWords(out)
		inVals := scratch[:len(g.Fanin)]
		for i, src := range g.Fanin {
			inVals[i] = ds.vals[src]
		}
		v := g.Type.EvalBool(inVals)
		ds.vals[id] = v

		cv, hasCtl := g.Type.ControllingValue()
		ctlBool := cv == logic.One
		switch {
		case len(g.Fanin) == 0:
			// constants: only their own stem fault flips them
		case g.Type == logic.Xor || g.Type == logic.Xnor:
			for p, src := range g.Fanin {
				ds.effectivePin(pinList, id, p, src)
				xorWords(out, pinList)
			}
		case !hasCtl:
			// BUF/NOT behave as union of the single pin.
			for p, src := range g.Fanin {
				ds.effectivePin(pinList, id, p, src)
				orWords(out, pinList)
			}
		default:
			// AND/NAND/OR/NOR.
			first := true
			anyCtl := false
			for p, src := range g.Fanin {
				if inVals[p] != ctlBool {
					continue
				}
				anyCtl = true
				ds.effectivePin(pinList, id, p, src)
				if first {
					copyWords(out, pinList)
					first = false
				} else {
					andWords(out, pinList)
				}
			}
			if !anyCtl {
				for p, src := range g.Fanin {
					ds.effectivePin(pinList, id, p, src)
					orWords(out, pinList)
				}
			} else {
				for p, src := range g.Fanin {
					if inVals[p] == ctlBool {
						continue
					}
					ds.effectivePin(pinList, id, p, src)
					andNotWords(out, pinList)
				}
			}
		}
		// The gate's own output stem fault.
		ds.setBit(out, Fault{id, Stem, logic.FromBool(!v)})
	}
	clearWords(ds.acc)
	for _, po := range ds.outputs {
		orWords(ds.acc, ds.lists[po])
	}
	return ds.acc
}

// effectivePin fills dst with the source net's list plus this pin's
// branch fault.
func (ds *DeductiveSim) effectivePin(dst []uint64, gate, pin, src int) {
	copyWords(dst, ds.lists[src])
	ds.setBit(dst, Fault{gate, pin, logic.FromBool(!ds.vals[src])})
}

// SimulateDeductive grades the pattern set against the fault list with
// the deductive simulator: one interpreted pass per pattern carrying
// every fault list at once, so it shares no code with the engine's
// backends or the compiled kernel. It is the independent reference the
// cross-oracle matrix and the façade tests hold Simulate to, like
// sim.EvalInterpInto for the good machine; Result matches Simulate's
// under the same view. Every pattern is fully processed (a pass
// carries all fault lists, so dropping saves nothing), with
// cancellation checked between patterns; it reports to
// telemetry.Default().
func SimulateDeductive(ctx context.Context, c *logic.Circuit, view View, faults []Fault, patterns [][]bool) (*Result, error) {
	reg := telemetry.Default()
	defer reg.Timer("fault.sim.deductive").Time()()
	inputs, outputs := view.resolve(c)
	ds := NewDeductiveSimView(c, inputs, outputs, faults)
	res := newResult(faults, len(patterns))
	for pi, p := range patterns {
		if err := ctx.Err(); err != nil {
			reg.Counter("fault.engine.cancelled").Inc()
			return nil, err
		}
		reg.Counter("fault.deductive.patterns").Inc()
		// One levelized pass per pattern carries every fault list at once.
		reg.Counter("fault.sim.events").Add(int64(len(c.Order)))
		det := ds.Pattern(p)
		for w, word := range det {
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &= word - 1
				fi := w*64 + b
				if fi < len(faults) && !res.Detected[fi] {
					res.Detected[fi] = true
					res.DetectedBy[fi] = pi
					res.NumCaught++
				}
			}
		}
	}
	reg.Counter("fault.sim.patterns").Add(int64(len(patterns)))
	reg.Counter("fault.sim.detected").Add(int64(res.NumCaught))
	return res, nil
}
