package main

import (
	"fmt"

	"fixture/a"
)

func main() {
	q, r := a.NewQueue(), &a.Ring{}
	var s a.Stack[int]
	s.Push(1)
	fmt.Println(q, r, r.Len(), a.Total(a.Box{}), a.Max([]a.Hits{1, 2}))
}
