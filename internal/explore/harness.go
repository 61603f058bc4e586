package explore

import (
	"fmt"
	"sort"

	"detectable/internal/counter"
	"detectable/internal/maxreg"
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

// Instance is one freshly built system under exploration: the runtime
// system whose history log is checked (and on which the scheduler arms its
// processes), the sequential specification to check it against, a Run
// function executing one program operation through the object's own
// method, and a crash injector.
type Instance struct {
	Sys *runtime.System
	Obj spec.Object
	// Run executes one program operation as pid and returns its encoded
	// response and detectable status. Whatever plan Sys has armed for pid
	// is consulted on every attempt; an unarmed pid runs as production does.
	Run   func(pid int, op spec.Operation) (int, runtime.Status)
	Crash func()
	// Observe, if set, runs after every applied decision of Run's
	// executions; returning true stops the run as the budget does.
	Observe func() (stop bool)
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

// writesAndReads is the program of a register-like object: method with a
// distinct value, alternating with reads.
func writesAndReads(method string) func(procs, ops int) Program {
	return func(procs, ops int) Program {
		return mix(procs, ops, func(p, k int) spec.Operation {
			return spec.NewOp(method, val(p, ops, k))
		}, read)
	}
}

// must panics on operations a harness does not understand — a programming
// error in the Program, not a checkable property.
func must(op spec.Operation, cond bool) {
	if !cond {
		panic(fmt.Sprintf("explore: harness cannot run operation %s", op))
	}
}

// methods maps a program operation's method to the object method that runs
// it, returning the encoded response and the detectable status.
type methods map[string]func(pid int, args []int) (int, runtime.Status)

// run executes op through its method in ms.
func (ms methods) run(pid int, op spec.Operation) (int, runtime.Status) {
	m, ok := ms[op.Method]
	must(op, ok)
	return m(pid, op.Args)
}

// ints is the result of a method with an integer response.
func ints(out runtime.Outcome[int]) (int, runtime.Status) { return out.Resp, out.Status }

// object is the harness of one object allocated in a fresh system of its
// own: build allocates it and returns its method table.
func object(name string, obj spec.Object, build func(sys *runtime.System) methods, prog func(procs, ops int) Program) Harness {
	return Harness{
		Name: name,
		Build: func(procs int) *Instance {
			sys := runtime.NewSystem(procs)
			return &Instance{Sys: sys, Obj: obj, Run: build(sys).run, Crash: sys.Crash}
		},
		DefaultProgram: prog,
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
	return object("rw", spec.Register{}, func(sys *runtime.System) methods {
		reg := rw.NewInt(sys, 0)
		return methods{
			spec.MethodWrite: func(pid int, a []int) (int, runtime.Status) { return ints(reg.Write(pid, a[0])) },
			spec.MethodRead:  func(pid int, _ []int) (int, runtime.Status) { return ints(reg.Read(pid)) },
		}
	}, writesAndReads(spec.MethodWrite))
}

func rcasMethods(cas *rcas.CAS[int]) methods {
	return methods{
		spec.MethodCAS: func(pid int, a []int) (int, runtime.Status) {
			out := cas.Cas(pid, a[0], a[1])
			return runtime.EncodeBool(out.Resp), out.Status
		},
		spec.MethodRead: func(pid int, _ []int) (int, runtime.Status) { return ints(cas.Read(pid)) },
	}
}

func rcasHarness() Harness {
	return object("rcas", spec.CAS{}, func(sys *runtime.System) methods {
		return rcasMethods(rcas.NewInt(sys, 0))
	}, func(procs, ops int) Program {
		// Every CAS targets old value 0, so the processes race for the
		// first swap, process 1's an identity Cas(0, 0); later CASes
		// exercise the failure path.
		return mix(procs, ops, func(p, k int) spec.Operation {
			if p == 1 && k == 0 {
				return spec.NewOp(spec.MethodCAS, 0, 0)
			}
			return spec.NewOp(spec.MethodCAS, 0, val(p, ops, k))
		}, read)
	})
}

func tasHarness() Harness {
	return object("tas", spec.TAS{}, func(sys *runtime.System) methods {
		t := tas.New(sys)
		return methods{
			spec.MethodTAS:   func(pid int, _ []int) (int, runtime.Status) { return ints(t.TestAndSet(pid)) },
			spec.MethodReset: func(pid int, _ []int) (int, runtime.Status) { return ints(t.Reset(pid)) },
		}
	}, func(procs, ops int) Program {
		return mix(procs, ops, func(int, int) spec.Operation {
			return spec.NewOp(spec.MethodTAS)
		}, func(int, int) spec.Operation {
			return spec.NewOp(spec.MethodReset)
		})
	})
}

func maxregHarness() Harness {
	return object("maxreg", spec.MaxRegister{}, func(sys *runtime.System) methods {
		m := maxreg.New(sys)
		return methods{
			spec.MethodWriteMax: func(pid int, a []int) (int, runtime.Status) { return ints(m.WriteMax(pid, a[0])) },
			spec.MethodRead:     func(pid int, _ []int) (int, runtime.Status) { return ints(m.Read(pid)) },
		}
	}, writesAndReads(spec.MethodWriteMax))
}

func queueHarness() Harness {
	return object("queue", spec.Queue{}, func(sys *runtime.System) methods {
		q := queue.New(sys)
		return methods{
			spec.MethodEnq: func(pid int, a []int) (int, runtime.Status) { return ints(q.Enq(pid, a[0])) },
			spec.MethodDeq: func(pid int, _ []int) (int, runtime.Status) { return ints(q.Deq(pid)) },
		}
	}, func(procs, ops int) Program {
		return mix(procs, ops, func(p, k int) spec.Operation {
			return spec.NewOp(spec.MethodEnq, val(p, ops, k))
		}, func(int, int) spec.Operation {
			return spec.NewOp(spec.MethodDeq)
		})
	})
}

// counterHarness runs a program of incs, each through counter.Counter.Inc:
// its read/CAS retry loop is what lands in the history, so the checker sees
// the underlying detectable CAS operations against the CAS specification.
func counterHarness() Harness {
	return object("counter", spec.CAS{}, func(sys *runtime.System) methods {
		c := counter.New(sys)
		return methods{
			spec.MethodInc: func(pid int, _ []int) (int, runtime.Status) { return c.Inc(pid), runtime.StatusOK },
		}
	}, func(procs, ops int) Program {
		inc := func(int, int) spec.Operation { return spec.NewOp(spec.MethodInc) }
		return mix(procs, ops, inc, inc)
	})
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
				Run: methods{
					spec.MethodWrite: func(pid int, a []int) (int, runtime.Status) { return ints(store.Put(pid, shardkvKey, a[0])) },
					spec.MethodRead:  func(pid int, _ []int) (int, runtime.Status) { return ints(store.Get(pid, shardkvKey)) },
				}.run,
				Crash: func() { store.CrashShard(0) },
			}
		},
		DefaultProgram: writesAndReads(spec.MethodWrite),
	}
}

// ConfigCount is Theorem 1's experiment on the shipped rcas object: n
// processes each run Cas(0, 1) then Cas(1, 0), crash-free, and it counts
// the distinct values of C = ⟨val, vec⟩ the schedules reach, deepening the
// preemption bound 0, 1, 2. A successful CAS of these scripts flips its
// process's bit of vec and toggles val, so val is always popcount(vec) mod
// 2 and exactly 2^n values are possible: the search stops as soon as it
// has seen them all, and Theorem 1 wants at least 2^n − 1.
func ConfigCount(n int) (int, error) {
	seen := map[rcas.Pair[int]]bool{}
	h := Harness{Name: "rcas", Build: func(procs int) *Instance {
		sys := runtime.NewSystem(procs)
		cas := rcas.NewInt(sys, 0)
		return &Instance{Sys: sys, Obj: spec.CAS{}, Run: rcasMethods(cas).run, Crash: sys.Crash,
			Observe: func() bool {
				seen[cas.PeekPair()] = true
				return len(seen) == 1<<n
			}}
	}}
	prog := make(Program, n)
	for p := range prog {
		prog[p] = []spec.Operation{spec.NewOp(spec.MethodCAS, 0, 1), spec.NewOp(spec.MethodCAS, 1, 0)}
	}
	switch res := Run(h, prog, Options{MaxPreemptions: 2}); {
	case res.Err != nil:
		return len(seen), res.Err
	case res.Counterexample != nil:
		return len(seen), fmt.Errorf("explore: rcas counterexample: %s", res.Counterexample)
	}
	return len(seen), nil
}
