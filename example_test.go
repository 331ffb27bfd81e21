package oraclesize_test

import (
	"fmt"
	"log"

	"oraclesize"
	"oraclesize/internal/broadcast"
)

// The quickest path through the library: build a network, run the paper's
// two constructions, compare what they cost in knowledge.
func Example() {
	g, err := oraclesize.RandomNetwork(128, 512, 7)
	if err != nil {
		log.Fatal(err)
	}
	w, err := oraclesize.Wakeup(g, 0)
	if err != nil {
		log.Fatal(err)
	}
	b, err := oraclesize.Broadcast(g, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wakeup: %d messages, complete=%v\n", w.Messages, w.Complete)
	bound, _ := broadcast.Bound(g.N())
	fmt.Printf("broadcast within 3(n-1): %v, complete=%v\n", b.Messages <= bound, b.Complete)
	fmt.Printf("wakeup needs more advice: %v\n", w.OracleBits > b.OracleBits)
	// Output:
	// wakeup: 127 messages, complete=true
	// broadcast within 3(n-1): true, complete=true
	// wakeup needs more advice: true
}

// Networks can be assembled edge by edge with explicit port numbers; the
// builder validates the port assignment.
func ExampleNewGraphBuilder() {
	b := oraclesize.NewGraphBuilder(4)
	b.AddEdgeAuto(0, 1)
	b.AddEdgeAuto(1, 2)
	b.AddEdgeAuto(2, 3)
	b.AddEdgeAuto(3, 0)
	g, err := b.Graph()
	if err != nil {
		log.Fatal(err)
	}
	rep, err := oraclesize.Broadcast(g, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("n=%d m=%d complete=%v\n", g.N(), g.M(), rep.Complete)
	// Output:
	// n=4 m=4 complete=true
}

// The advice itself is a first-class object whose size is the paper's
// difficulty measure.
func ExampleWakeupAdvice() {
	g, err := oraclesize.RandomNetwork(64, 192, 3)
	if err != nil {
		log.Fatal(err)
	}
	w, err := oraclesize.WakeupAdvice(g, 0)
	if err != nil {
		log.Fatal(err)
	}
	b, err := oraclesize.BroadcastAdvice(g, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wakeup advice is larger: %v\n",
		oraclesize.OracleSizeBits(w) > oraclesize.OracleSizeBits(b))
	// Output:
	// wakeup advice is larger: true
}
