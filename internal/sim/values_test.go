package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"oraclesize/internal/graphgen"
	"oraclesize/internal/scheme"
)

// valuesLog hands out the Values slices a valuesNode sends: the message
// with Payload i carries sent[i], so a receiver can check that it got that
// very slice. Every third slice is nil and every third one empty but not
// nil.
type valuesLog struct {
	sent    [][]int64
	checked int
	bad     []string
}

func (l *valuesLog) send(out []scheme.Send, port int) []scheme.Send {
	id := len(l.sent)
	var vals []int64
	switch id % 3 {
	case 1:
		vals = make([]int64, 0, 2)
	case 2:
		vals = make([]int64, id%5+1, 8)
		vals[0] = int64(id)
	}
	l.sent = append(l.sent, vals)
	return append(out, scheme.Send{Port: port, Msg: scheme.Message{Kind: scheme.KindUp, Payload: uint64(id), Values: vals}})
}

func (l *valuesLog) check(msg scheme.Message) {
	l.checked++
	want := l.sent[msg.Payload]
	if (msg.Values == nil) != (want == nil) || len(msg.Values) != len(want) ||
		unsafe.SliceData(msg.Values) != unsafe.SliceData(want) {
		l.bad = append(l.bad, fmt.Sprintf("message %d delivered Values %p len %d, sent %p len %d",
			msg.Payload, unsafe.SliceData(msg.Values), len(msg.Values), unsafe.SliceData(want), len(want)))
	}
}

// valuesNode floods: the source, and every other node on its first
// delivery, sends on all its ports, each message with its own Values.
type valuesNode struct {
	log  *valuesLog
	info scheme.NodeInfo
	sent bool
}

func (v *valuesNode) sendAll(out []scheme.Send) []scheme.Send {
	v.sent = true
	for p := 0; p < v.info.Degree; p++ {
		out = v.log.send(out, p)
	}
	return out
}

func (v *valuesNode) Init(out []scheme.Send) []scheme.Send {
	if !v.info.Source {
		return out
	}
	return v.sendAll(out)
}

func (v *valuesNode) Receive(msg scheme.Message, _ int, out []scheme.Send) []scheme.Send {
	v.log.check(msg)
	if v.sent {
		return out
	}
	return v.sendAll(out)
}

func valuesAlgo(log *valuesLog) scheme.Algorithm {
	return scheme.Func{AlgoName: "values-flood", New: func(info scheme.NodeInfo) scheme.Node {
		return &valuesNode{log: log, info: info}
	}}
}

// schedulersWithOwnFIFO is Schedulers(seed) plus the engine's own FIFO, a
// nil Options.Scheduler.
func schedulersWithOwnFIFO(seed int64) map[string]SchedulerFactory {
	scheds := Schedulers(seed)
	scheds["own-fifo"] = func() Scheduler { return nil }
	return scheds
}

// TestValuesReachReceiversUncopied pins the engine's Values side table:
// under every scheduler each delivered message carries the very slice its
// sender emitted (same backing array, same length, nil stays nil), as the
// scheme.Message contract promises.
func TestValuesReachReceiversUncopied(t *testing.T) {
	g := mustGraph(t)(graphgen.RandomConnected(40, 100, rand.New(rand.NewSource(3))))
	for name, factory := range schedulersWithOwnFIFO(7) {
		log := &valuesLog{}
		res, err := Run(g, 0, valuesAlgo(log), nil, Options{Scheduler: factory()})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Messages != 2*g.M() || res.Deliveries != res.Messages || log.checked != res.Deliveries {
			t.Errorf("%s: %d messages, %d deliveries, %d checked; want %d each", name, res.Messages, res.Deliveries, log.checked, 2*g.M())
		}
		for _, b := range log.bad {
			t.Errorf("%s: %s", name, b)
		}
	}
}

// TestEngineReuseAfterBudgetFailure runs an engine into its message budget
// mid-run under every scheduler and then reuses it: the failed run must
// leave no Values behind, and the next run must equal a fresh engine's.
func TestEngineReuseAfterBudgetFailure(t *testing.T) {
	g := mustGraph(t)(graphgen.RandomConnected(40, 100, rand.New(rand.NewSource(5))))
	noValues := func(name string, e *Engine) {
		for i, v := range e.values[:cap(e.values)] {
			if v != nil {
				t.Errorf("%s: engine retains Values in slot %d", name, i)
			}
		}
	}
	e := NewEngine()
	for name, factory := range schedulersWithOwnFIFO(9) {
		_, err := e.Run(g, 0, valuesAlgo(&valuesLog{}), nil, Options{Scheduler: factory(), MaxMessages: g.M()})
		if !errors.Is(err, ErrMessageBudget) {
			t.Fatalf("%s: budget run returned %v, want ErrMessageBudget", name, err)
		}
		noValues(name+" after failure", e)
		want, err := NewEngine().Run(g, 0, valuesAlgo(&valuesLog{}), nil, Options{Scheduler: factory()})
		if err != nil {
			t.Fatal(err)
		}
		log := &valuesLog{}
		got, err := e.Run(g, 0, valuesAlgo(log), nil, Options{Scheduler: factory()})
		if err != nil {
			t.Fatalf("%s: reused engine: %v", name, err)
		}
		if w, g := snap(want), snap(got); !reflect.DeepEqual(w, g) {
			t.Errorf("%s: reused engine diverged from a fresh one:\nfresh:  %+v\nreused: %+v", name, w, g)
		}
		for _, b := range log.bad {
			t.Errorf("%s: reused engine: %s", name, b)
		}
		noValues(name+" after success", e)
	}
}

// TestPendingHoldsNoPointer pins the in-flight record's layout: no field
// the garbage collector must scan, and at most 48 bytes to copy.
func TestPendingHoldsNoPointer(t *testing.T) {
	if size := unsafe.Sizeof(pending{}); size > 48 {
		t.Errorf("pending is %d bytes, want at most 48", size)
	}
	typ := reflect.TypeOf(pending{})
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int32, reflect.Uint8, reflect.Uint64:
		default:
			t.Errorf("pending.%s is a %s", f.Name, f.Type)
		}
	}
}

// TestFIFOCompactsConsumedPrefix: a long run that keeps about a hundred
// messages in flight keeps the FIFO's storage in proportion to them, not
// to the million it delivers, and still delivers in send order.
func TestFIFOCompactsConsumedPrefix(t *testing.T) {
	var s fifoScheduler
	const live = 100
	for i := 0; i < 1_000_000; i++ {
		s.slot().Seq = i
		if i < live {
			continue
		}
		if p := s.next(); p == nil || p.Seq != i-live {
			t.Fatalf("next after slot %d: %+v; want seq %d", i, p, i-live)
		}
	}
	if c := cap(s.queue); c > 8*live {
		t.Errorf("FIFO holds storage for %d messages with %d in flight", c, s.Len())
	}
}
