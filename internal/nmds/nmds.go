// Package nmds implements the NEESgrid Metadata Service (paper §2.3):
// create/update/manage/validate metadata and metadata schemas, where — the
// property the paper singles out — "metadata schemas are represented by
// first-class objects and can be managed just like any other object". It
// also supports per-object version control and authorization.
package nmds

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"neesgrid/internal/ogsi"
)

// SchemaSchema is the ID of the built-in meta-schema: the schema that
// schema objects themselves conform to.
const SchemaSchema = "neesgrid.schema"

// Object is one metadata object (or schema — a schema is an object whose
// Schema field is SchemaSchema).
type Object struct {
	ID        string          `json:"id"`
	Schema    string          `json:"schema,omitempty"`
	Version   int             `json:"version"`
	Owner     string          `json:"owner"`
	Body      json.RawMessage `json:"body"`
	CreatedAt time.Time       `json:"created_at"`
	UpdatedAt time.Time       `json:"updated_at"`
}

// SchemaBody is the structure of a schema object's body: a field-type map
// plus required field names. Types: "string", "number", "bool", "object",
// "array".
type SchemaBody struct {
	Fields   map[string]string `json:"fields"`
	Required []string          `json:"required,omitempty"`
}

// Store is the metadata store. Safe for concurrent use.
type Store struct {
	mu      sync.Mutex
	objects map[string][]*Object       // id → version history (1-based, index 0 = v1)
	writers map[string]map[string]bool // id → identities allowed to update
	clock   func() time.Time
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		objects: make(map[string][]*Object),
		writers: make(map[string]map[string]bool),
		clock:   time.Now,
	}
}

// validate checks body against the schema object (by ID) if given.
func (s *Store) validateLocked(schemaID string, body json.RawMessage) error {
	if schemaID == "" {
		return nil
	}
	if schemaID == SchemaSchema {
		// Schemas validate against the built-in meta-schema: body must be
		// a well-formed SchemaBody with known types.
		var sb SchemaBody
		if err := json.Unmarshal(body, &sb); err != nil {
			return fmt.Errorf("nmds: malformed schema body: %w", err)
		}
		for f, typ := range sb.Fields {
			switch typ {
			case "string", "number", "bool", "object", "array":
			default:
				return fmt.Errorf("nmds: schema field %q has unknown type %q", f, typ)
			}
		}
		for _, req := range sb.Required {
			if _, ok := sb.Fields[req]; !ok {
				return fmt.Errorf("nmds: schema requires unknown field %q", req)
			}
		}
		return nil
	}
	history, ok := s.objects[schemaID]
	if !ok {
		return fmt.Errorf("nmds: no schema %q", schemaID)
	}
	schema := history[len(history)-1]
	if schema.Schema != SchemaSchema {
		return fmt.Errorf("nmds: object %q is not a schema", schemaID)
	}
	var sb SchemaBody
	if err := json.Unmarshal(schema.Body, &sb); err != nil {
		return fmt.Errorf("nmds: stored schema corrupt: %w", err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(body, &doc); err != nil {
		return fmt.Errorf("nmds: body is not a JSON object: %w", err)
	}
	for _, req := range sb.Required {
		if _, ok := doc[req]; !ok {
			return fmt.Errorf("nmds: missing required field %q", req)
		}
	}
	for name, raw := range doc {
		typ, ok := sb.Fields[name]
		if !ok {
			return fmt.Errorf("nmds: field %q not in schema %q", name, schemaID)
		}
		if err := checkType(name, typ, raw); err != nil {
			return err
		}
	}
	return nil
}

func checkType(name, typ string, raw json.RawMessage) error {
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		return fmt.Errorf("nmds: field %q: %w", name, err)
	}
	ok := false
	switch typ {
	case "string":
		_, ok = v.(string)
	case "number":
		_, ok = v.(float64)
	case "bool":
		_, ok = v.(bool)
	case "object":
		_, ok = v.(map[string]any)
	case "array":
		_, ok = v.([]any)
	}
	if !ok {
		return fmt.Errorf("nmds: field %q is not a %s", name, typ)
	}
	return nil
}

// Create stores version 1 of a new object. For schema objects pass
// schemaID = SchemaSchema.
func (s *Store) Create(owner, id, schemaID string, body any) (*Object, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return nil, fmt.Errorf("nmds: marshal body: %w", err)
	}
	if id == "" {
		return nil, fmt.Errorf("nmds: object needs an id")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.objects[id]; dup {
		return nil, fmt.Errorf("nmds: object %q already exists", id)
	}
	if err := s.validateLocked(schemaID, raw); err != nil {
		return nil, err
	}
	now := s.clock()
	obj := &Object{ID: id, Schema: schemaID, Version: 1, Owner: owner,
		Body: raw, CreatedAt: now, UpdatedAt: now}
	s.objects[id] = []*Object{obj}
	return cloneObj(obj), nil
}

// Update appends a new version; only the owner and granted writers may
// update. The body is re-validated against the object's schema.
func (s *Store) Update(identity, id string, body any) (*Object, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return nil, fmt.Errorf("nmds: marshal body: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	history, ok := s.objects[id]
	if !ok {
		return nil, fmt.Errorf("nmds: no object %q", id)
	}
	cur := history[len(history)-1]
	if cur.Owner != identity && !s.writers[id][identity] {
		return nil, fmt.Errorf("nmds: %q may not update %q", identity, id)
	}
	if err := s.validateLocked(cur.Schema, raw); err != nil {
		return nil, err
	}
	next := &Object{ID: id, Schema: cur.Schema, Version: cur.Version + 1,
		Owner: cur.Owner, Body: raw, CreatedAt: cur.CreatedAt, UpdatedAt: s.clock()}
	s.objects[id] = append(history, next)
	return cloneObj(next), nil
}

// Grant allows another identity to update an object; only the owner may
// grant.
func (s *Store) Grant(owner, id, identity string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	history, ok := s.objects[id]
	if !ok {
		return fmt.Errorf("nmds: no object %q", id)
	}
	if history[len(history)-1].Owner != owner {
		return fmt.Errorf("nmds: only the owner may grant on %q", id)
	}
	if s.writers[id] == nil {
		s.writers[id] = make(map[string]bool)
	}
	s.writers[id][identity] = true
	return nil
}

// Get returns the latest version of an object.
func (s *Store) Get(id string) (*Object, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	history, ok := s.objects[id]
	if !ok {
		return nil, fmt.Errorf("nmds: no object %q", id)
	}
	return cloneObj(history[len(history)-1]), nil
}

// GetVersion returns one historical version (1-based).
func (s *Store) GetVersion(id string, version int) (*Object, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	history, ok := s.objects[id]
	if !ok {
		return nil, fmt.Errorf("nmds: no object %q", id)
	}
	if version < 1 || version > len(history) {
		return nil, fmt.Errorf("nmds: object %q has no version %d", id, version)
	}
	return cloneObj(history[version-1]), nil
}

// History returns all versions of an object, oldest first.
func (s *Store) History(id string) ([]*Object, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	history, ok := s.objects[id]
	if !ok {
		return nil, fmt.Errorf("nmds: no object %q", id)
	}
	out := make([]*Object, len(history))
	for i, o := range history {
		out[i] = cloneObj(o)
	}
	return out, nil
}

// List returns the latest version of every object with the given schema
// (all objects when schemaID is empty), sorted by ID.
func (s *Store) List(schemaID string) []*Object {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*Object
	for _, history := range s.objects {
		cur := history[len(history)-1]
		if schemaID == "" || cur.Schema == schemaID {
			out = append(out, cloneObj(cur))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func cloneObj(o *Object) *Object {
	c := *o
	c.Body = append(json.RawMessage(nil), o.Body...)
	return &c
}

// ---------------------------------------------------------------------------
// OGSI service wrapper
// ---------------------------------------------------------------------------

type createParams struct {
	ID     string          `json:"id"`
	Schema string          `json:"schema,omitempty"`
	Body   json.RawMessage `json:"body"`
}

type updateParams struct {
	ID   string          `json:"id"`
	Body json.RawMessage `json:"body"`
}

type idParams struct {
	ID      string `json:"id"`
	Version int    `json:"version,omitempty"`
}

type grantParams struct {
	ID       string `json:"id"`
	Identity string `json:"identity"`
}

type listParams struct {
	Schema string `json:"schema,omitempty"`
}

// NewService exposes a store as the "nmds" OGSI service. Callers are
// authenticated by the container; the caller identity becomes the object
// owner.
func NewService(store *Store) *ogsi.Service {
	svc := ogsi.NewService("nmds")
	svc.RegisterOp("create", func(_ context.Context, caller ogsi.Caller, params json.RawMessage) (any, error) {
		var p createParams
		if err := json.Unmarshal(params, &p); err != nil {
			return nil, ogsi.Errf(ogsi.CodeBadRequest, "bad create params: %v", err)
		}
		obj, err := store.Create(caller.Identity, p.ID, p.Schema, json.RawMessage(p.Body))
		if err != nil {
			return nil, ogsi.Errf(ogsi.CodeBadRequest, "%v", err)
		}
		_ = svc.SDEs.Set("objects", store.count())
		return obj, nil
	})
	svc.RegisterOp("update", func(_ context.Context, caller ogsi.Caller, params json.RawMessage) (any, error) {
		var p updateParams
		if err := json.Unmarshal(params, &p); err != nil {
			return nil, ogsi.Errf(ogsi.CodeBadRequest, "bad update params: %v", err)
		}
		obj, err := store.Update(caller.Identity, p.ID, json.RawMessage(p.Body))
		if err != nil {
			return nil, ogsi.Errf(ogsi.CodeDenied, "%v", err)
		}
		return obj, nil
	})
	svc.RegisterOp("get", func(_ context.Context, _ ogsi.Caller, params json.RawMessage) (any, error) {
		var p idParams
		if err := json.Unmarshal(params, &p); err != nil {
			return nil, ogsi.Errf(ogsi.CodeBadRequest, "bad get params: %v", err)
		}
		if p.Version > 0 {
			obj, err := store.GetVersion(p.ID, p.Version)
			if err != nil {
				return nil, ogsi.Errf(ogsi.CodeNotFound, "%v", err)
			}
			return obj, nil
		}
		obj, err := store.Get(p.ID)
		if err != nil {
			return nil, ogsi.Errf(ogsi.CodeNotFound, "%v", err)
		}
		return obj, nil
	})
	svc.RegisterOp("history", func(_ context.Context, _ ogsi.Caller, params json.RawMessage) (any, error) {
		var p idParams
		if err := json.Unmarshal(params, &p); err != nil {
			return nil, ogsi.Errf(ogsi.CodeBadRequest, "bad history params: %v", err)
		}
		hist, err := store.History(p.ID)
		if err != nil {
			return nil, ogsi.Errf(ogsi.CodeNotFound, "%v", err)
		}
		return hist, nil
	})
	svc.RegisterOp("list", func(_ context.Context, _ ogsi.Caller, params json.RawMessage) (any, error) {
		var p listParams
		if len(params) > 0 {
			if err := json.Unmarshal(params, &p); err != nil {
				return nil, ogsi.Errf(ogsi.CodeBadRequest, "bad list params: %v", err)
			}
		}
		return store.List(p.Schema), nil
	})
	svc.RegisterOp("grant", func(_ context.Context, caller ogsi.Caller, params json.RawMessage) (any, error) {
		var p grantParams
		if err := json.Unmarshal(params, &p); err != nil {
			return nil, ogsi.Errf(ogsi.CodeBadRequest, "bad grant params: %v", err)
		}
		if err := store.Grant(caller.Identity, p.ID, p.Identity); err != nil {
			return nil, ogsi.Errf(ogsi.CodeDenied, "%v", err)
		}
		return map[string]bool{"granted": true}, nil
	})
	return svc
}

func (s *Store) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.objects)
}
