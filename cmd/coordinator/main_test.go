package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"neesgrid/internal/structural"
)

func TestWriteOutputsReportsUncreatableHistory(t *testing.T) {
	dir := t.TempDir()
	// A directory where the history file should go: os.Create must fail.
	path := filepath.Join(dir, "run-history.csv")
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	err := writeOutputs(dir, "run", structural.NewHistory(1, 0), nil)
	if err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("writeOutputs = %v, want an error naming %s", err, path)
	}
}
