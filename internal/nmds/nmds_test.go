package nmds

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"neesgrid/internal/gsi"
	"neesgrid/internal/ogsi"
)

const alice = "/O=NEES/CN=alice"
const bob = "/O=NEES/CN=bob"

func expSchema(t *testing.T, s *Store) {
	t.Helper()
	_, err := s.Create(alice, "exp-schema", SchemaSchema, SchemaBody{
		Fields:   map[string]string{"name": "string", "mass": "number", "sites": "array", "ok": "bool", "cfg": "object"},
		Required: []string{"name"},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSchemaIsFirstClassObject(t *testing.T) {
	s := NewStore()
	expSchema(t, s)
	obj, err := s.Get("exp-schema")
	if err != nil {
		t.Fatal(err)
	}
	if obj.Schema != SchemaSchema || obj.Version != 1 {
		t.Fatalf("schema object = %+v", obj)
	}
	// Schemas are versioned and updatable like any object.
	_, err = s.Update(alice, "exp-schema", SchemaBody{
		Fields:   map[string]string{"name": "string"},
		Required: []string{"name"},
	})
	if err != nil {
		t.Fatal(err)
	}
	obj, _ = s.Get("exp-schema")
	if obj.Version != 2 {
		t.Fatalf("schema version = %d", obj.Version)
	}
}

func TestCreateValidatesAgainstSchema(t *testing.T) {
	s := NewStore()
	expSchema(t, s)
	// Valid.
	if _, err := s.Create(alice, "most", "exp-schema", map[string]any{
		"name": "MOST", "mass": 20000.0, "sites": []string{"uiuc", "cu", "ncsa"},
	}); err != nil {
		t.Fatal(err)
	}
	// Missing required field.
	if _, err := s.Create(alice, "bad1", "exp-schema", map[string]any{"mass": 1.0}); err == nil {
		t.Fatal("missing required field accepted")
	}
	// Wrong type.
	if _, err := s.Create(alice, "bad2", "exp-schema", map[string]any{"name": 7}); err == nil {
		t.Fatal("wrong type accepted")
	}
	// Unknown field.
	if _, err := s.Create(alice, "bad3", "exp-schema", map[string]any{"name": "x", "zzz": 1}); err == nil {
		t.Fatal("unknown field accepted")
	}
	// Unknown schema.
	if _, err := s.Create(alice, "bad4", "nope", map[string]any{}); err == nil {
		t.Fatal("unknown schema accepted")
	}
	// Non-schema object used as schema.
	if _, err := s.Create(alice, "bad5", "most", map[string]any{}); err == nil {
		t.Fatal("non-schema object accepted as schema")
	}
}

func TestSchemalessObjects(t *testing.T) {
	s := NewStore()
	if _, err := s.Create(alice, "free", "", map[string]any{"anything": "goes"}); err != nil {
		t.Fatal(err)
	}
}

func TestBadSchemaBodiesRejected(t *testing.T) {
	s := NewStore()
	if _, err := s.Create(alice, "s1", SchemaSchema, SchemaBody{
		Fields: map[string]string{"x": "quaternion"},
	}); err == nil {
		t.Fatal("unknown field type accepted")
	}
	if _, err := s.Create(alice, "s2", SchemaSchema, SchemaBody{
		Fields: map[string]string{"x": "string"}, Required: []string{"y"},
	}); err == nil {
		t.Fatal("required-but-undeclared field accepted")
	}
}

func TestVersionHistory(t *testing.T) {
	s := NewStore()
	now := time.Unix(100, 0)
	s.SetClock(func() time.Time { return now })
	_, _ = s.Create(alice, "obj", "", map[string]int{"v": 1})
	now = now.Add(time.Minute)
	_, _ = s.Update(alice, "obj", map[string]int{"v": 2})
	now = now.Add(time.Minute)
	_, _ = s.Update(alice, "obj", map[string]int{"v": 3})

	hist, err := s.History("obj")
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 3 {
		t.Fatalf("history length %d", len(hist))
	}
	v2, err := s.GetVersion("obj", 2)
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]int
	_ = json.Unmarshal(v2.Body, &body)
	if body["v"] != 2 {
		t.Fatalf("v2 body = %v", body)
	}
	if v2.CreatedAt != time.Unix(100, 0) {
		t.Fatal("CreatedAt should be preserved across versions")
	}
	if !v2.UpdatedAt.After(v2.CreatedAt) {
		t.Fatal("UpdatedAt should advance")
	}
	if _, err := s.GetVersion("obj", 9); err == nil {
		t.Fatal("missing version accepted")
	}
}

func TestAuthorization(t *testing.T) {
	s := NewStore()
	_, _ = s.Create(alice, "obj", "", map[string]int{"v": 1})
	if _, err := s.Update(bob, "obj", map[string]int{"v": 2}); err == nil {
		t.Fatal("non-owner update accepted")
	}
	if err := s.Grant(bob, "obj", bob); err == nil {
		t.Fatal("non-owner grant accepted")
	}
	if err := s.Grant(alice, "obj", bob); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Update(bob, "obj", map[string]int{"v": 2}); err != nil {
		t.Fatalf("granted writer rejected: %v", err)
	}
}

func TestListBySchema(t *testing.T) {
	s := NewStore()
	expSchema(t, s)
	_, _ = s.Create(alice, "most", "exp-schema", map[string]any{"name": "MOST"})
	_, _ = s.Create(alice, "mini", "exp-schema", map[string]any{"name": "Mini-MOST"})
	_, _ = s.Create(alice, "other", "", map[string]any{})
	got := s.List("exp-schema")
	if len(got) != 2 || got[0].ID != "mini" || got[1].ID != "most" {
		t.Fatalf("List = %v", got)
	}
	all := s.List("")
	if len(all) != 4 { // schema + 3 objects
		t.Fatalf("List all = %d", len(all))
	}
}

func TestDuplicateAndMissing(t *testing.T) {
	s := NewStore()
	_, _ = s.Create(alice, "obj", "", map[string]int{})
	if _, err := s.Create(alice, "obj", "", map[string]int{}); err == nil {
		t.Fatal("duplicate create accepted")
	}
	if _, err := s.Create(alice, "", "", map[string]int{}); err == nil {
		t.Fatal("empty id accepted")
	}
	if _, err := s.Get("missing"); err == nil {
		t.Fatal("missing get accepted")
	}
	if _, err := s.Update(alice, "missing", map[string]int{}); err == nil {
		t.Fatal("missing update accepted")
	}
	if _, err := s.History("missing"); err == nil {
		t.Fatal("missing history accepted")
	}
	if err := s.Grant(alice, "missing", bob); err == nil {
		t.Fatal("missing grant accepted")
	}
}

// Remote service test over a live container.
func TestNMDSService(t *testing.T) {
	ca, err := gsi.NewAuthority("/O=NEES/CN=CA", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	trust := gsi.NewTrustStore(ca.Cert)
	serverCred, _ := ca.Issue("/O=NEES/CN=repo", time.Hour)
	aliceCred, _ := ca.Issue(alice, time.Hour)
	bobCred, _ := ca.Issue(bob, time.Hour)
	gm := gsi.NewGridmap(map[string]string{alice: "alice", bob: "bob"})
	cont := ogsi.NewContainer(serverCred, trust, gm)
	store := NewStore()
	cont.AddService(NewService(store))
	addr, err := cont.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = cont.Stop(ctx)
	}()

	ctx := context.Background()
	aliceCl := ogsi.NewClient("http://"+addr, aliceCred, trust)
	bobCl := ogsi.NewClient("http://"+addr, bobCred, trust)

	// Create via wire; owner is the caller identity.
	var obj Object
	err = aliceCl.Call(ctx, "nmds", "create", createParams{
		ID: "most", Body: json.RawMessage(`{"name":"MOST"}`),
	}, &obj)
	if err != nil {
		t.Fatal(err)
	}
	if obj.Owner != alice {
		t.Fatalf("owner = %q", obj.Owner)
	}
	// Bob cannot update.
	err = bobCl.Call(ctx, "nmds", "update", updateParams{
		ID: "most", Body: json.RawMessage(`{"name":"X"}`),
	}, nil)
	if !ogsi.IsRemoteCode(err, ogsi.CodeDenied) {
		t.Fatalf("bob update err = %v", err)
	}
	// Grant then update.
	if err := aliceCl.Call(ctx, "nmds", "grant", grantParams{ID: "most", Identity: bob}, nil); err != nil {
		t.Fatal(err)
	}
	if err := bobCl.Call(ctx, "nmds", "update", updateParams{
		ID: "most", Body: json.RawMessage(`{"name":"MOST v2"}`),
	}, nil); err != nil {
		t.Fatal(err)
	}
	// History over the wire.
	var hist []Object
	if err := aliceCl.Call(ctx, "nmds", "history", idParams{ID: "most"}, &hist); err != nil {
		t.Fatal(err)
	}
	if len(hist) != 2 {
		t.Fatalf("history = %d versions", len(hist))
	}
	// Get specific version.
	var v1 Object
	if err := aliceCl.Call(ctx, "nmds", "get", idParams{ID: "most", Version: 1}, &v1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(v1.Body), "MOST") || v1.Version != 1 {
		t.Fatalf("v1 = %+v", v1)
	}
	// List.
	var all []Object
	if err := aliceCl.Call(ctx, "nmds", "list", listParams{}, &all); err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 {
		t.Fatalf("list = %d", len(all))
	}
	// Unknown object.
	err = aliceCl.Call(ctx, "nmds", "get", idParams{ID: "nope"}, nil)
	if !ogsi.IsRemoteCode(err, ogsi.CodeNotFound) {
		t.Fatalf("get missing err = %v", err)
	}
}

// SetClock overrides the time source (tests).
func (s *Store) SetClock(clock func() time.Time) { s.clock = clock }
