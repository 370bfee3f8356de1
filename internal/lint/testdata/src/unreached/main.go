// Command unreached is the root of the unreached analyzer's fixture
// program: everything the lib package keeps alive is reached from here.
package main

import (
	"fmt"

	"unreached/internal/lib"
)

func main() {
	sq := lib.NewSquare(2)
	fmt.Println(lib.Describe(sq), sq) // sq's String is reached through fmt.Stringer
	fmt.Println(lib.Max(1, 2), lib.Max("a", "b"))
	var s lib.Stack[int]
	s.Push(1)
	d, _ := lib.Decode([]byte(`{"Name":"x"}`))
	fmt.Println(lib.NewConfig(1).Keyed, d, lib.MakeKV("k", 1))
}
