package scheme

import (
	"testing"

	"oraclesize/internal/bitstring"
)

func TestKindString(t *testing.T) {
	tests := []struct {
		k    Kind
		want string
	}{
		{KindM, "M"},
		{KindHello, "hello"},
		{KindProbe, "probe"},
		{KindUp, "up"},
		{KindDown, "down"},
		{Kind(200), "?"},
	}
	for _, tc := range tests {
		if got := tc.k.String(); got != tc.want {
			t.Errorf("Kind(%d).String() = %q, want %q", tc.k, got, tc.want)
		}
	}
}

type countingNode struct {
	info     NodeInfo
	received int
}

func (c *countingNode) Init(out []Send) []Send {
	if !c.info.Source {
		return out
	}
	return append(out, Send{Port: 0, Msg: Message{Kind: KindProbe}})
}

func (c *countingNode) Receive(_ Message, _ int, out []Send) []Send {
	c.received++
	return out
}

func TestFuncAdapter(t *testing.T) {
	algo := Func{
		AlgoName: "counting",
		New:      func(info NodeInfo) Node { return &countingNode{info: info} },
	}
	if algo.Name() != "counting" {
		t.Errorf("Name = %q", algo.Name())
	}
	srcNode := algo.NewNode(NodeInfo{Source: true, Degree: 2})
	if sends := srcNode.Init(nil); len(sends) != 1 || sends[0].Port != 0 {
		t.Errorf("source Init = %v", sends)
	}
	other := algo.NewNode(NodeInfo{Degree: 2})
	if sends := other.Init(nil); len(sends) != 0 {
		t.Errorf("non-source Init = %v", sends)
	}
	// Each NewNode call must create independent automata.
	a := algo.NewNode(NodeInfo{Degree: 1}).(*countingNode)
	b := algo.NewNode(NodeInfo{Degree: 1}).(*countingNode)
	a.Receive(Message{}, 0, nil)
	if b.received != 0 {
		t.Error("automata share state")
	}
}

func TestNodeInfoCarriesQuadruple(t *testing.T) {
	// NodeInfo mirrors the paper's (f(v), s(v), id(v), deg(v)).
	info := NodeInfo{
		Advice: bitstring.FromBits(1, 0),
		Source: true,
		Label:  42,
		Degree: 3,
	}
	if info.Advice.Len() != 2 || !info.Source || info.Label != 42 || info.Degree != 3 {
		t.Errorf("info = %+v", info)
	}
}

func TestMessageSizeBits(t *testing.T) {
	tests := []struct {
		msg  Message
		want int
	}{
		{Message{Kind: KindM}, 4},
		{Message{Kind: KindHello, Informed: true}, 4},
		{Message{Kind: KindProbe, Payload: 1}, 5},
		{Message{Kind: KindProbe, Payload: 1024}, 4 + 11},
		{Message{Kind: KindUp, Values: []int64{0}}, 4 + 2},
		{Message{Kind: KindDown, Values: []int64{3, 300}}, 4 + (1 + 2) + (1 + 9)},
	}
	for _, tc := range tests {
		if got := tc.msg.SizeBits(); got != tc.want {
			t.Errorf("SizeBits(%+v) = %d, want %d", tc.msg, got, tc.want)
		}
	}
}

// TestAppendSend: the appender equals appending the Send literal, both
// into reused storage whose stale element carries Values and Informed and
// past the capacity, and it allocates nothing while capacity lasts.
func TestAppendSend(t *testing.T) {
	stale := []Send{{Port: 9, Msg: Message{Kind: KindUp, Payload: 5, Informed: true, Values: []int64{1}}}, {}}
	out := AppendSend(stale[:1:2], 3, KindProbe, 7)
	want := Send{Port: 3, Msg: Message{Kind: KindProbe, Payload: 7}}
	if len(out) != 2 || &out[1] != &stale[1] {
		t.Fatalf("did not extend in place: len %d", len(out))
	}
	if got := out[1]; got.Port != want.Port || got.Msg.Kind != want.Msg.Kind || got.Msg.Payload != want.Msg.Payload ||
		got.Msg.Informed || got.Msg.Values != nil {
		t.Errorf("in place: %+v, want %+v", got, want)
	}
	stale[1] = stale[0]
	out = AppendSend(stale[:1:2], 3, KindProbe, 7)
	if got := out[1]; got.Msg.Informed || got.Msg.Values != nil {
		t.Errorf("stale fields survived: %+v", got)
	}
	out = AppendSend(out, 0, KindM, 0)
	if len(out) != 3 || out[2].Port != 0 || out[2].Msg.Kind != KindM || out[0].Port != 9 {
		t.Errorf("grown: %+v", out)
	}
	buf := make([]Send, 0, 4)
	if allocs := testing.AllocsPerRun(100, func() {
		buf = AppendSend(AppendSend(buf[:0], 1, KindM, 0), 2, KindHello, 0)
	}); allocs != 0 {
		t.Errorf("AppendSend allocated %v times within capacity", allocs)
	}
}
