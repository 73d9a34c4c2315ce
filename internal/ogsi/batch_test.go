package ogsi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"
)

func TestAppendBatchItemsJSONMatchesMarshal(t *testing.T) {
	cases := [][]BatchOp{
		{{Op: "execute", Params: map[string]string{"name": "run/step-7/uiuc"}}},
		{
			{Op: "execute", Params: map[string]string{"name": `odd "name"`}},
			{Op: "propose", Params: map[string]any{"name": "s", "ttl_seconds": 1.5}},
		},
		{{Op: "get", Params: nil}},
		{{Op: "html <escapes> & entities", Params: []int{1, 2, 3}}},
	}
	for _, ops := range cases {
		items := make([]batchItem, len(ops))
		for i := range ops {
			raw, err := json.Marshal(ops[i].Params)
			if err != nil {
				t.Fatal(err)
			}
			items[i] = batchItem{Op: ops[i].Op, Params: raw}
		}
		want, err := json.Marshal(items)
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendBatchItemsJSON(nil, ops)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("append %s != marshal %s", got, want)
		}
	}
}

func TestAppendResponseListJSONMatchesMarshal(t *testing.T) {
	cases := [][]*response{
		{{OK: true}},
		{
			{OK: true, Result: json.RawMessage(`{"f":[1.5]}`)},
			{OK: false, Code: CodeConflict, Error: `cannot "execute"`},
			{OK: true, Trace: "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01"},
		},
	}
	for _, resps := range cases {
		want, err := json.Marshal(resps)
		if err != nil {
			t.Fatal(err)
		}
		got := appendResponseListJSON(nil, resps)
		if !bytes.Equal(got, want) {
			t.Fatalf("append %s != marshal %s", got, want)
		}
	}
}

func TestCallBatchDispatchesInOrder(t *testing.T) {
	var order []string
	svc := NewService("seq")
	for _, op := range []string{"first", "second"} {
		op := op
		svc.RegisterOp(op, func(_ context.Context, _ Caller, params json.RawMessage) (any, error) {
			order = append(order, op)
			return map[string]string{"op": op}, nil
		})
	}
	f := newFabric(t, func(c *Container) { c.AddService(svc) })

	var outs [2]map[string]string
	faults, err := f.client.CallBatch(context.Background(), "seq", []BatchOp{
		{Op: "first", Out: &outs[0]}, {Op: "second", Out: &outs[1]},
	})
	if err != nil || faults != nil {
		t.Fatal(err, faults)
	}
	for i, want := range []string{"first", "second"} {
		if outs[i]["op"] != want {
			t.Fatalf("result %d = %v", i, outs[i])
		}
	}
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Fatalf("dispatch order = %v", order)
	}
	// Sub-ops keep their own telemetry, and the batch op is metered too.
	snap := f.container.Telemetry().Snapshot()
	for _, name := range []string{"ogsi.seq.first.requests", "ogsi.seq.second.requests", "ogsi.seq.batch.requests"} {
		if snap.Counters[name] != 1 {
			t.Fatalf("%s = %d, want 1", name, snap.Counters[name])
		}
	}
}

func TestCallBatchPerItemFaultDoesNotFailEnvelope(t *testing.T) {
	svc := NewService("mix")
	svc.RegisterOp("ok", func(context.Context, Caller, json.RawMessage) (any, error) {
		return 7, nil
	})
	svc.RegisterOp("bad", func(context.Context, Caller, json.RawMessage) (any, error) {
		return nil, Errf(CodeConflict, "not now")
	})
	f := newFabric(t, func(c *Container) { c.AddService(svc) })

	n, unset := 0, -1
	faults, err := f.client.CallBatch(context.Background(), "mix", []BatchOp{
		{Op: "ok", Out: &n}, {Op: "bad", Out: &unset}, {Op: "missing"},
	})
	if err != nil {
		t.Fatalf("envelope must survive per-item faults: %v", err)
	}
	if len(faults) != 3 || faults[0] != nil || n != 7 {
		t.Fatalf("ok item: %v %d", faults, n)
	}
	if !IsRemoteCode(faults[1], CodeConflict) || unset != -1 {
		t.Fatalf("bad item err = %v, out %d", faults[1], unset)
	}
	var re *RemoteError
	if !errors.As(faults[2], &re) || re.Code != CodeNotFound {
		t.Fatalf("missing item err = %v", faults[2])
	}
}

func TestBatchRejectsAbuse(t *testing.T) {
	f := newFabric(t, func(c *Container) { c.AddService(echoService()) })
	ctx := context.Background()

	// Nested batch: the inner item faults, the envelope survives.
	faults, err := f.client.CallBatch(ctx, "echo", []BatchOp{{Op: "batch", Params: []batchItem{}}})
	if err != nil {
		t.Fatal(err)
	}
	if !IsRemoteCode(faults[0], CodeBadRequest) {
		t.Fatalf("nested batch err = %v", faults[0])
	}

	// Empty batch is rejected client-side.
	if _, err := f.client.CallBatch(ctx, "echo", nil); err == nil {
		t.Fatal("empty batch must fail")
	}

	// Oversized batch is rejected server-side.
	big := make([]BatchOp, maxBatchOps+1)
	for i := range big {
		big[i] = BatchOp{Op: "echo", Params: map[string]string{"msg": "x"}}
	}
	if _, err := f.client.CallBatch(ctx, "echo", big); !IsRemoteCode(err, CodeBadRequest) {
		t.Fatalf("oversized batch err = %v", err)
	}

	// Malformed params (not a list) fault the batch op itself.
	var out batchResults
	err = f.client.Call(ctx, "echo", "batch", map[string]string{"not": "a list"}, &out)
	if !IsRemoteCode(err, CodeBadRequest) {
		t.Fatalf("malformed batch err = %v", err)
	}
}
