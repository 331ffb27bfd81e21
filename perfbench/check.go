package main

import (
	"fmt"
	"math/bits"
)

// checkResult holds one simulation result to the guarantees the paper
// proves for its scheme. Every run must complete. The Theorem 2.1 wakeup
// scheme ("tree") sends exactly n-1 messages on O(n log n) advice bits,
// checked as at most 3n⌈log n⌉. The Theorem 3.1 broadcast scheme
// ("light-tree") sends at most 3(n-1) messages on O(n) advice bits,
// checked as at most 10n, the bound the repository's own tests use.
func checkResult(task, scheme string, nodes, adviceBits, messages int, complete bool) error {
	if !complete {
		return fmt.Errorf("%s/%s on %d nodes did not complete", task, scheme, nodes)
	}
	if nodes < 2 {
		return fmt.Errorf("%s/%s reports %d nodes", task, scheme, nodes)
	}
	switch {
	case task == "wakeup" && scheme == "tree":
		logn := bits.Len(uint(nodes - 1))
		if messages != nodes-1 {
			return fmt.Errorf("wakeup/tree on %d nodes sent %d messages, want n-1 = %d", nodes, messages, nodes-1)
		}
		if adviceBits > 3*nodes*logn {
			return fmt.Errorf("wakeup/tree on %d nodes used %d advice bits, over 3n⌈log n⌉ = %d", nodes, adviceBits, 3*nodes*logn)
		}
	case task == "broadcast" && scheme == "light-tree":
		if messages > 3*(nodes-1) {
			return fmt.Errorf("broadcast/light-tree on %d nodes sent %d messages, over 3(n-1) = %d", nodes, messages, 3*(nodes-1))
		}
		if adviceBits > 10*nodes {
			return fmt.Errorf("broadcast/light-tree on %d nodes used %d advice bits, over 10n = %d", nodes, adviceBits, 10*nodes)
		}
	}
	return nil
}
