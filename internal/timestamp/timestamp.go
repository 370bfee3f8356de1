// Package timestamp provides the logical timestamps of the dataflow: a
// totally ordered scalar epoch. Megaphone's frontiers are defined over
// partially ordered times in general (Definition 1 of the paper); this
// runtime only needs the scalar case, where a frontier is a single time.
package timestamp

import (
	"fmt"
	"math"
)

// Scalar is a totally ordered timestamp: an unsigned integer, typically
// interpreted as nanoseconds of event time or as an epoch counter.
type Scalar uint64

// MaxScalar is the greatest Scalar timestamp. The runtime reserves it as a
// sentinel meaning "no further times" (an empty frontier); user data must
// carry timestamps strictly less than MaxScalar.
const MaxScalar Scalar = math.MaxUint64

// String formats the scalar, rendering the sentinel as "∞".
func (s Scalar) String() string {
	if s == MaxScalar {
		return "∞"
	}
	return fmt.Sprintf("%d", uint64(s))
}
