// Package spec defines sequential specifications for the shared objects
// studied in the paper: read/write register, compare-and-swap, counter
// (bounded and unbounded), fetch-and-add, FIFO queue and max register.
//
// A specification is a deterministic transition function over an encoded
// state. The same specifications drive three consumers:
//
//   - the durable-linearizability checker (internal/linearize), which
//     searches for a legal sequential witness of a recorded concurrent
//     history;
//   - the doubly-perturbing analyzer (internal/perturb), which searches
//     sequential histories for the witnesses required by Definition 3 of
//     the paper (Lemmas 3–8);
//   - the example applications' reference models.
//
// States are encoded as strings so that heterogeneous objects (a queue's
// state is a sequence, a register's a single value) share one interface and
// can be used as map keys during search.
package spec

import (
	"fmt"
	"strings"
)

// Method names used by the built-in objects.
const (
	MethodRead     = "read"
	MethodWrite    = "write"
	MethodCAS      = "cas"
	MethodInc      = "inc"
	MethodFAA      = "faa"
	MethodEnq      = "enq"
	MethodDeq      = "deq"
	MethodWriteMax = "writemax"
)

// Distinguished response values.
const (
	// Ack is the response of operations that return no value (write, enq).
	Ack = 0
	// Empty is the response of a dequeue on an empty queue.
	Empty = -1
	// False and True encode boolean responses (CAS).
	False = 0
	True  = 1
)

// Operation is one abstract operation: a method name and its arguments as
// specified by the object's *abstract* interface. Per Definition 1 of the
// paper, auxiliary state passed via arguments is exactly data beyond these.
type Operation struct {
	Method string
	Args   []int
}

// NewOp builds an Operation.
func NewOp(method string, args ...int) Operation {
	return Operation{Method: method, Args: args}
}

// String renders the operation like "cas(0,1)".
func (o Operation) String() string {
	args := make([]string, len(o.Args))
	for i, a := range o.Args {
		args[i] = fmt.Sprint(a)
	}
	return fmt.Sprintf("%s(%s)", o.Method, strings.Join(args, ","))
}

// Object is a deterministic sequential specification.
type Object interface {
	// Name identifies the object type (e.g. "register").
	Name() string
	// Init returns the encoded initial state.
	Init() string
	// Apply performs op on the encoded state, returning the next state and
	// the operation's response.
	Apply(state string, op Operation) (next string, resp int)
	// Ops enumerates the candidate operations over a value domain
	// {0, ..., domain-1}, used by bounded searches.
	Ops(domain int) []Operation
}
