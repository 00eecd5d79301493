// Package lib holds one declaration no root reaches, Dead, among the
// shapes the gate must not report.
package lib

import "fmt"

// Live is reached through NewLive. Nothing calls String by name: a
// method lives and dies with its type.
type Live struct{ n step }

type step int

const first step = 1

func NewLive() *Live { return &Live{n: first} }

func (l *Live) Run() { registry[l.String()]++ }

func (l *Live) String() string { return fmt.Sprint(l.n) }

var registry map[string]int

// init and blank declarations of a linked package are roots.
func init() { registry = newRegistry() }

func newRegistry() map[string]int { return map[string]int{} }

var _ fmt.Stringer = asserted{}

type asserted struct{}

func (asserted) String() string { return helper }

const helper = "reached only from a method of a type reached only from var _"

// Dead is the planted declaration: its method mentions it, nothing else
// does.
type Dead struct{}

func (Dead) Run() { _ = Dead{} }
