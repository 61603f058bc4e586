package explore

import (
	"fmt"
	"sort"

	"detectable/internal/counter"
	"detectable/internal/maxreg"
	"detectable/internal/nvm"
	"detectable/internal/queue"
	"detectable/internal/rcas"
	"detectable/internal/runtime"
	"detectable/internal/rw"
	"detectable/internal/shardkv"
	"detectable/internal/spec"
	"detectable/internal/tas"
)

// Program is the workload of one execution: Program[pid] is the sequence of
// abstract operations process pid performs, in order. Operations are
// interpreted by the harness's Run function; for the plain objects they are
// exactly the spec methods, for composed harnesses (counter) they may be
// higher-level ("inc" expands to a read/CAS retry loop whose constituent
// operations are what lands in the history).
type Program [][]spec.Operation

// NumOps returns the total operation count across all processes.
func (p Program) NumOps() int {
	n := 0
	for _, ops := range p {
		n += len(ops)
	}
	return n
}

// Instance is one freshly built system under exploration: the runtime
// system whose history log is checked, the sequential specification to
// check it against, a Run function executing one program operation with a
// scheduler plan armed on every attempt, and a crash injector.
type Instance struct {
	Sys *runtime.System
	Obj spec.Object
	// Run executes one program operation as pid with plan armed on every
	// attempt (pass nil to run without hooks, as production does and the
	// differential tests do). It returns the operation's encoded response
	// and detectable status.
	Run   func(pid int, op spec.Operation, plan nvm.CrashPlan) (int, runtime.Status)
	Crash func()
}

// Harness builds Instances and default Programs for one object type.
type Harness struct {
	// Name identifies the harness ("rw", "rcas", "tas", "maxreg", "queue",
	// "counter", "shardkv").
	Name string
	// Build allocates a fresh instance for procs processes. Called once per
	// explored execution, so state never leaks between interleavings.
	Build func(procs int) *Instance
	// DefaultProgram generates the standard workload: ops operations per
	// process, mixing mutators and readers with distinct argument values.
	DefaultProgram func(procs, ops int) Program
}

// val returns a distinct nonzero argument for op k of process p.
func val(p, ops, k int) int { return p*ops + k + 1 }

// mix builds the usual alternating mutate/observe program.
func mix(procs, ops int, mutate func(p, k int) spec.Operation, observe func(p, k int) spec.Operation) Program {
	prog := make(Program, procs)
	for p := 0; p < procs; p++ {
		for k := 0; k < ops; k++ {
			if k%2 == 0 {
				prog[p] = append(prog[p], mutate(p, k))
			} else {
				prog[p] = append(prog[p], observe(p, k))
			}
		}
	}
	return prog
}

func read(int, int) spec.Operation { return spec.NewOp(spec.MethodRead) }

// must panics on operations a harness does not understand — a programming
// error in the Program, not a checkable property.
func must(op spec.Operation, cond bool) {
	if !cond {
		panic(fmt.Sprintf("explore: harness cannot run operation %s", op))
	}
}

// Harnesses returns every registered harness, sorted by name.
func Harnesses() []Harness {
	hs := []Harness{rwHarness(), rcasHarness(), tasHarness(), maxregHarness(),
		queueHarness(), counterHarness(), shardkvHarness()}
	sort.Slice(hs, func(i, j int) bool { return hs[i].Name < hs[j].Name })
	return hs
}

// ByName returns the named harness.
func ByName(name string) (Harness, error) {
	for _, h := range Harnesses() {
		if h.Name == name {
			return h, nil
		}
	}
	return Harness{}, fmt.Errorf("explore: no harness %q", name)
}

func rwHarness() Harness {
	return Harness{
		Name: "rw",
		Build: func(procs int) *Instance {
			sys := runtime.NewSystem(procs)
			reg := rw.NewInt(sys, 0)
			return &Instance{
				Sys: sys, Obj: spec.Register{},
				Run: func(pid int, op spec.Operation, plan nvm.CrashPlan) (int, runtime.Status) {
					switch op.Method {
					case spec.MethodWrite:
						out := runtime.ExecuteArmed(sys, pid, reg.WriteOp(pid, op.Args[0]), plan)
						return out.Resp, out.Status
					case spec.MethodRead:
						out := runtime.ExecuteArmed(sys, pid, reg.ReadOp(pid), plan)
						return out.Resp, out.Status
					default:
						must(op, false)
						return 0, 0
					}
				},
				Crash: func() { sys.Crash() },
			}
		},
		DefaultProgram: func(procs, ops int) Program {
			return mix(procs, ops, func(p, k int) spec.Operation {
				return spec.NewOp(spec.MethodWrite, val(p, ops, k))
			}, read)
		},
	}
}

func rcasHarness() Harness {
	return Harness{
		Name: "rcas",
		Build: func(procs int) *Instance {
			sys := runtime.NewSystem(procs)
			cas := rcas.NewInt(sys, 0)
			return &Instance{
				Sys: sys, Obj: spec.CAS{},
				Run: func(pid int, op spec.Operation, plan nvm.CrashPlan) (int, runtime.Status) {
					switch op.Method {
					case spec.MethodCAS:
						out := runtime.ExecuteArmed(sys, pid, cas.CasOp(pid, op.Args[0], op.Args[1]), plan)
						return runtime.EncodeBool(out.Resp), out.Status
					case spec.MethodRead:
						out := runtime.ExecuteArmed(sys, pid, cas.ReadOp(pid), plan)
						return out.Resp, out.Status
					default:
						must(op, false)
						return 0, 0
					}
				},
				Crash: func() { sys.Crash() },
			}
		},
		DefaultProgram: func(procs, ops int) Program {
			// Every CAS targets old value 0, so the processes race for the
			// first swap, process 1's an identity Cas(0, 0); later CASes
			// exercise the failure path.
			return mix(procs, ops, func(p, k int) spec.Operation {
				if p == 1 && k == 0 {
					return spec.NewOp(spec.MethodCAS, 0, 0)
				}
				return spec.NewOp(spec.MethodCAS, 0, val(p, ops, k))
			}, read)
		},
	}
}

func tasHarness() Harness {
	return Harness{
		Name: "tas",
		Build: func(procs int) *Instance {
			sys := runtime.NewSystem(procs)
			t := tas.New(sys)
			return &Instance{
				Sys: sys, Obj: spec.TAS{},
				Run: func(pid int, op spec.Operation, plan nvm.CrashPlan) (int, runtime.Status) {
					switch op.Method {
					case spec.MethodTAS:
						out := runtime.ExecuteArmed(sys, pid, t.TestAndSetOp(pid), plan)
						return out.Resp, out.Status
					case spec.MethodReset:
						out := runtime.ExecuteArmed(sys, pid, t.ResetOp(pid), plan)
						return out.Resp, out.Status
					default:
						must(op, false)
						return 0, 0
					}
				},
				Crash: func() { sys.Crash() },
			}
		},
		DefaultProgram: func(procs, ops int) Program {
			return mix(procs, ops, func(int, int) spec.Operation {
				return spec.NewOp(spec.MethodTAS)
			}, func(int, int) spec.Operation {
				return spec.NewOp(spec.MethodReset)
			})
		},
	}
}

func maxregHarness() Harness {
	return Harness{
		Name: "maxreg",
		Build: func(procs int) *Instance {
			sys := runtime.NewSystem(procs)
			m := maxreg.New(sys)
			return &Instance{
				Sys: sys, Obj: spec.MaxRegister{},
				Run: func(pid int, op spec.Operation, plan nvm.CrashPlan) (int, runtime.Status) {
					switch op.Method {
					case spec.MethodWriteMax:
						out := runtime.ExecuteArmed(sys, pid, m.WriteMaxOp(pid, op.Args[0]), plan)
						return out.Resp, out.Status
					case spec.MethodRead:
						out := runtime.ExecuteArmed(sys, pid, m.ReadOp(pid), plan)
						return out.Resp, out.Status
					default:
						must(op, false)
						return 0, 0
					}
				},
				Crash: func() { sys.Crash() },
			}
		},
		DefaultProgram: func(procs, ops int) Program {
			return mix(procs, ops, func(p, k int) spec.Operation {
				return spec.NewOp(spec.MethodWriteMax, val(p, ops, k))
			}, read)
		},
	}
}

func queueHarness() Harness {
	return Harness{
		Name: "queue",
		Build: func(procs int) *Instance {
			sys := runtime.NewSystem(procs)
			q := queue.New(sys)
			return &Instance{
				Sys: sys, Obj: spec.Queue{},
				Run: func(pid int, op spec.Operation, plan nvm.CrashPlan) (int, runtime.Status) {
					switch op.Method {
					case spec.MethodEnq:
						out := runtime.ExecuteArmed(sys, pid, q.EnqOp(pid, op.Args[0]), plan)
						return out.Resp, out.Status
					case spec.MethodDeq:
						out := runtime.ExecuteArmed(sys, pid, q.DeqOp(pid), plan)
						return out.Resp, out.Status
					default:
						must(op, false)
						return 0, 0
					}
				},
				Crash: func() { sys.Crash() },
			}
		},
		DefaultProgram: func(procs, ops int) Program {
			return mix(procs, ops, func(p, k int) spec.Operation {
				return spec.NewOp(spec.MethodEnq, val(p, ops, k))
			}, func(int, int) spec.Operation {
				return spec.NewOp(spec.MethodDeq)
			})
		},
	}
}

// MethodInc is the counter harness's program-level operation: it expands to
// the read/CAS retry loop of counter.Counter.IncArmed, so the history the
// checker sees consists of the underlying detectable CAS operations.
const MethodInc = spec.MethodInc

func counterHarness() Harness {
	return Harness{
		Name: "counter",
		Build: func(procs int) *Instance {
			sys := runtime.NewSystem(procs)
			c := counter.New(sys)
			return &Instance{
				// The history records the read/cas ops of the composition,
				// so it is checked against the CAS specification.
				Sys: sys, Obj: spec.CAS{},
				Run: func(pid int, op spec.Operation, plan nvm.CrashPlan) (int, runtime.Status) {
					must(op, op.Method == MethodInc)
					return c.IncArmed(pid, plan), runtime.StatusOK
				},
				Crash: func() { sys.Crash() },
			}
		},
		DefaultProgram: func(procs, ops int) Program {
			prog := make(Program, procs)
			for p := 0; p < procs; p++ {
				for k := 0; k < ops; k++ {
					prog[p] = append(prog[p], spec.NewOp(MethodInc))
				}
			}
			return prog
		},
	}
}

// shardkvKey is the single key the shardkv harness exercises: exploration
// needs the shard's history to describe one register, and the operation
// descriptions recorded by the underlying rw registers do not carry keys.
const shardkvKey = "k"

func shardkvHarness() Harness {
	return Harness{
		Name: "shardkv",
		Build: func(procs int) *Instance {
			store := shardkv.New(1, procs, shardkv.FullHistory())
			return &Instance{
				Sys: store.System(0), Obj: spec.Register{},
				Run: func(pid int, op spec.Operation, plan nvm.CrashPlan) (int, runtime.Status) {
					switch op.Method {
					case spec.MethodWrite:
						out := store.PutArmed(pid, shardkvKey, op.Args[0], plan)
						return out.Resp, out.Status
					case spec.MethodRead:
						out := store.GetArmed(pid, shardkvKey, plan)
						return out.Resp, out.Status
					default:
						must(op, false)
						return 0, 0
					}
				},
				Crash: func() { store.CrashShard(0) },
			}
		},
		DefaultProgram: func(procs, ops int) Program {
			return mix(procs, ops, func(p, k int) spec.Operation {
				return spec.NewOp(spec.MethodWrite, val(p, ops, k))
			}, read)
		},
	}
}
