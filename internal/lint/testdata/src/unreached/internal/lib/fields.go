package lib

import "encoding/json"

// Config fixtures the field rule: main reaches it through NewConfig, and
// each field is set, or not, one way.
type Config struct {
	Never       int // want "field lib.Config.Never is never set"
	Defaulted   int // want "field lib.Config.Defaulted is never set"
	CopyOfNever int // want "field lib.Config.CopyOfNever is never set"
	CopyOfSet   int
	CopyOfCopy  int
	Assigned    int
	OpAssigned  int
	Incremented int
	Keyed       int
	Addressed   int
	Counter     Counter
	Elems       [4]int
	// Kept is turned only by lib_test.go, and says so.
	//
	//megalint:allow unreached test support: lib_test.go turns it
	Kept       int
	CopyOfKept int
	unexported int // out of scope
	// Unjustified carries an allow without a reason, which does not exempt.
	//
	/* want "megalint:allow unreached without a justification" */ //megalint:allow unreached
	Unjustified                                                   int // want "field lib.Config.Unjustified is never set"
}

// Counter is set through its pointer method.
type Counter struct{ n int }

// Add has a pointer receiver, so calling it on a field takes its address.
func (c *Counter) Add() { c.n++ }

// Decoded is filled by json.Unmarshal alone, through reflection.
type Decoded struct{ Name string }

// Pair is given its values through its alias KV.
type Pair[K, V any] struct {
	Key K
	Val V
}

// KV is a generic alias: it declares no struct of its own.
type KV[K, V any] = Pair[K, V]

// NewConfig sets Config's fields every way the rule counts, and two ways
// it does not: a default and a copy of an unset field.
func NewConfig(n int) *Config {
	c := &Config{Keyed: n}
	c.Assigned = n
	c.OpAssigned += n
	c.Incremented++
	if c.Defaulted <= 0 {
		c.Defaulted = 64
	}
	c.CopyOfNever = int(c.Never)
	c.CopyOfCopy = c.CopyOfSet
	c.CopyOfSet = (c.Assigned)
	c.CopyOfKept = c.Kept
	addr(&c.Addressed)
	c.Counter.Add()
	c.Elems[0] = n
	_ = c.unexported
	return c
}

func addr(p *int) { *p = 1 }

// Decode fills a Decoded by reflection.
func Decode(b []byte) (Decoded, error) {
	var d Decoded
	err := json.Unmarshal(b, &d)
	return d, err
}

// MakeKV sets Pair's fields positionally, through the alias.
func MakeKV(k string, v int) KV[string, int] { return KV[string, int]{k, v} }
