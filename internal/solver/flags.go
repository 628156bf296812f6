// Table-driven CLI flag validation generated from engine capabilities.
// svmtrain and svmtune share one rule table instead of hand-rolled
// per-engine cross-validation: each rule binds a flag name to the
// capability bit that makes it meaningful, and CheckFlags rejects any set
// flag the selected engine cannot honor — before any data is loaded.
package solver

import (
	"fmt"
	"strings"
)

// FlagRule binds one CLI flag to the capability required to honor it.
type FlagRule struct {
	// Flag is the flag name without the leading dash.
	Flag string
	// Need is the capability bit(s) the engine must declare for the flag
	// to apply.
	Need Capability
	// Hint, when non-empty, is appended to the error to explain why the
	// flag is engine-specific (e.g. why streaming needs a linear engine).
	Hint string
}

// TrainFlagRules is the svmtrain rule table: every engine-conditional
// flag, bound to the capability that gates it. svmtune reuses the subset
// it shares (see TuneFlagRules).
var TrainFlagRules = []FlagRule{
	{Flag: "stream", Need: CapStreaming,
		Hint: "the kernel engines need random access to every row, which defeats a bounded-memory stream"},
	{Flag: "mem-budget", Need: CapStreaming,
		Hint: "the byte budget only applies to the out-of-core stream"},
	{Flag: "checkpoint-dir", Need: CapCheckpoint},
	{Flag: "checkpoint-every", Need: CapCheckpoint},
	{Flag: "checkpoint-min-interval", Need: CapCheckpoint},
	{Flag: "resume", Need: CapCheckpoint | CapWarmStart},
	{Flag: "update-from", Need: CapWarmStart},
	{Flag: "trace", Need: CapTrace},
	{Flag: "heuristic", Need: CapHeuristics},
	{Flag: "p", Need: CapDistributed},
	// -shards is deliberately absent: sharded *loading* works with every
	// engine (non-distributed ones train on the concatenated shards); only
	// the core engine additionally maps one rank per shard.
	{Flag: "inject-crash-rank", Need: CapFaultInject},
	{Flag: "inject-crash-at", Need: CapFaultInject},
	{Flag: "inject-crash-cluster", Need: CapFaultInject | CapComposite},
	{Flag: "dc-clusters", Need: CapComposite},
	{Flag: "dc-levels", Need: CapComposite},
	{Flag: "dc-polish", Need: CapComposite},
	{Flag: "dc-polish-full", Need: CapComposite},
	{Flag: "dc-kernel-space", Need: CapComposite},
	{Flag: "dc-subsolver", Need: CapComposite},
	{Flag: "linear-variant", Need: CapLinearVariants},
	{Flag: "linear-epochs", Need: CapLinearVariants},
	{Flag: "svr-epsilon", Need: CapSVR, Hint: "select it with -task svr"},
	{Flag: "nu", Need: CapOneClass, Hint: "select it with -task oneclass"},
}

// TuneFlagRules is the svmtune rule table (the subset of train flags the
// tuner exposes, plus its own grid flags).
var TuneFlagRules = []FlagRule{
	{Flag: "sigma2-grid", Need: CapKernels,
		Hint: "linear-only engines have no kernel bandwidth to sweep"},
	{Flag: "heuristic", Need: CapHeuristics},
	{Flag: "p", Need: CapDistributed},
	{Flag: "linear-variant", Need: CapLinearVariants},
	{Flag: "linear-epochs", Need: CapLinearVariants},
}

// CheckFlags validates every set engine-conditional flag against the
// selected engine's capabilities. wasSet reports whether the user set the
// named flag explicitly (flag.Visit semantics: defaults don't count).
// The first violation is returned, naming the flag, the engine, the
// missing capability, and which registered engines would accept it.
func CheckFlags(e Engine, wasSet func(name string) bool, rules []FlagRule) error {
	caps := e.Capabilities()
	for _, r := range rules {
		if !wasSet(r.Flag) || caps.Has(r.Need) {
			continue
		}
		capable := WithCapability(r.Need)
		msg := fmt.Sprintf("-%s requires a %s-capable engine; -solver %s does not support it",
			r.Flag, r.Need, e.Name())
		if len(capable) > 0 {
			msg += fmt.Sprintf(" (capable: %s)", strings.Join(capable, ", "))
		}
		if r.Hint != "" {
			msg += " — " + r.Hint
		}
		return fmt.Errorf("%s", msg)
	}
	return nil
}
