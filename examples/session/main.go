// Session: a long-lived engine over a live graph (DESIGN.md §10).
//
// Open computes the initial SSSP fixpoint and parks the worker fleet;
// each Apply folds a batch of edge insertions and deletions into the
// EDB and re-converges incrementally — the warm tables absorb the
// mutation's delta instead of recomputing from scratch. An insert is a
// fresh delta (sound by the paper's Theorem 3 replay tolerance); a
// delete invalidates the keys whose value the edge supported, and the
// keys those supported in turn, and re-derives them.
//
//	go run ./examples/session
package main

import (
	"fmt"
	"log"

	"powerlog"
)

const program = `
r1. sssp(X,d) :- X=0, d=0.
r2. sssp(Y,min[dy]) :- sssp(X,dx), edge(X,Y,dxy), dy = dx + dxy.
`

func main() {
	g, err := powerlog.NewGraph(4, []powerlog.Edge{
		{Src: 0, Dst: 1, W: 4}, {Src: 1, Dst: 2, W: 3}, {Src: 0, Dst: 2, W: 9},
	}, true)
	if err != nil {
		log.Fatal(err)
	}
	prog, err := powerlog.Parse(program)
	if err != nil {
		log.Fatal(err)
	}
	db := powerlog.NewDatabase()
	db.SetGraph("edge", g)
	plan, err := prog.Compile(db)
	if err != nil {
		log.Fatal(err)
	}

	sess, err := powerlog.Open(plan, powerlog.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()
	fmt.Println("initial:      ", sess.Result().Values) // map[0:0 1:4 2:7]

	res, err := sess.Apply(powerlog.Mutation{
		Inserts: []powerlog.Edge{{Src: 2, Dst: 3, W: 1}},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("after insert: ", res.Values) // map[0:0 1:4 2:7 3:8]

	res, err = sess.Apply(powerlog.Mutation{
		Deletes: []powerlog.Edge{{Src: 1, Dst: 2}}, // drops every 1→2 edge
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("after delete: ", res.Values) // map[0:0 1:4 2:9 3:10]
}
