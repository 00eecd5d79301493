// Package lib holds one declaration no root reaches, Dead, one method of
// a live type no code calls, Live.Unused, an interface method no code
// calls through it, Stage.Label, with its implementation, doubler.Label,
// a Len that only shares sort.Interface's name, Lone.Len, and two option
// fields that hold one value in every program, Config.Fixed and
// Config.Unset, among the shapes the gates must not report.
package lib

import (
	"fmt"
	"sort"
)

// Live is reached through NewLive and Run through main. Run calls
// String, Step through Stage, and sorts through sort.Interface; nothing
// calls Unused.
type Live struct {
	n    step
	lone Lone
}

type step int

const first step = 1

func NewLive(c Config, p Params) *Live { return &Live{n: first + step(c.Unset+p.Positional)} }

// Config has one field per way of holding two values, and two fields
// that hold one: Fixed, which every literal sets to 8, and Unset, which
// is only read.
type Config struct {
	Keyed     int // 1 in DefaultConfig's literal, 2 in main's
	Assigned  int // 0 where a literal omits it, 2 where main assigns it
	Addressed int
	Nested    struct{ Depth int } // written through: cfg.Nested.Depth++
	Decoded   int                 `json:"decoded"`
	Fixed     int
	Unset     int
	private   int // not an option: unexported
}

func DefaultConfig() Config { return Config{Keyed: 1, Fixed: 8} }

// Params is written by an unkeyed literal, with a value that is not a
// constant.
type Params struct{ Positional int }

func (l *Live) Run() {
	var s Stage = doubler{}
	sort.Sort(byN(l.lone))
	registry[l.String()] += s.Step(len(l.lone))
}

func (l *Live) String() string { return fmt.Sprint(l.n) }

// Unused is the planted method: its type is live, nothing names it.
func (l *Live) Unused() int { return int(l.n) }

var registry map[string]int

// init and blank declarations of a linked package are roots.
func init() { registry = newRegistry() }

func newRegistry() map[string]int { return map[string]int{} }

var _ fmt.Stringer = asserted{}

// asserted is reached only from var _, and its String only through the
// fmt.Stringer the assertion names: a type that implements an interface
// declared outside the module reaches that interface's methods.
type asserted struct{}

func (asserted) String() string { return helper }

const helper = "reached only from a method of a type reached only from var _"

// Stage is called through for Step only: doubler.Step is reached by
// dispatch, Stage.Label and doubler.Label are not.
type Stage interface {
	Step(n int) int
	Label() string
}

type doubler struct{}

func (doubler) Step(n int) int { return 2 * n }

func (doubler) Label() string { return "doubler" }

// Lone's Len has sort.Interface's name, but Lone does not implement
// sort.Interface, so no foreign call can reach it.
type Lone []int

func (l Lone) Len() int { return len(l) }

// byN implements sort.Interface and goes to sort.Sort: the foreign code
// calls its methods, so they are reached together with the type.
type byN []int

func (b byN) Len() int           { return len(b) }
func (b byN) Less(i, j int) bool { return b[i] < b[j] }
func (b byN) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

// Aliased is named by main's Public alias. An alias in a root package is
// public API, so Exported counts as reached although nothing calls it.
type Aliased struct{}

func (Aliased) Exported() string { return "reached through the alias's method set" }

// Dead is the planted declaration: its method mentions it, nothing else
// does.
type Dead struct{}

func (Dead) Run() { _ = Dead{} }
