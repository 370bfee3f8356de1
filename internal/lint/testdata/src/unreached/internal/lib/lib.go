// Package lib fixtures the unreached analyzer: what the root main package
// reaches is kept, what only lib_test.go calls is reported.
package lib

import "cmp"

// OnlyTested is called from lib_test.go alone, and test uses do not count.
func OnlyTested() int { return 1 } // want "func lib.OnlyTested is unreached"

// testOnlyType is named only by lib_test.go.
type testOnlyType struct{} // want "type lib.testOnlyType is unreached"

// Shape is the interface the root uses.
type Shape interface{ Area() int }

// Square is reached through NewSquare.
type Square struct{ side int }

// NewSquare is called by the root.
func NewSquare(side int) Square { return Square{side} }

// Area is named by nothing but Shape's method: Describe's dynamic call may
// land on it, so it is reached.
func (s Square) Area() int { return s.side * s.side }

// String satisfies fmt.Stringer, an interface only the standard library
// names: fmt calls it.
func (s Square) String() string { return "square" }

// Perimeter matches no used interface and nothing calls it.
func (s Square) Perimeter() int { return 4 * s.side } // want "method lib.Square.Perimeter is unreached"

// Describe calls through the interface.
func Describe(s Shape) int { return s.Area() }

// Max is reached through its instantiations.
func Max[T cmp.Ordered](a, b T) T { return max(a, b) }

// Stack is a generic type whose method is reached through an instance.
type Stack[T any] struct{ items []T }

// Push is reached as (*Stack[int]).Push, whose origin this is.
func (s *Stack[T]) Push(v T) { s.items = append(s.items, v) }

// Pop is never called, on any instance.
func (s *Stack[T]) Pop() T { // want "method lib.Stack.Pop is unreached"
	v := s.items[len(s.items)-1]
	s.items = s.items[:len(s.items)-1]
	return v
}

// Helper is kept for other packages' tests, and says so.
//
//megalint:allow unreached test support: lib_test.go's fixtures build on it
func Helper() int { return helperPart() }

// helperPart is reached through Helper, which counts as a root.
func helperPart() int { return 2 }

// Unjustified carries an allow without a reason, which does not suppress.
//
/* want "megalint:allow unreached without a justification" */ //megalint:allow unreached
func Unjustified() int {                                      // want "func lib.Unjustified is unreached"
	return 0
}
