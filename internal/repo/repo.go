// Package repo couples the NEESgrid metadata service (NMDS) and file
// management service (NFMS) behind the Façade pattern the paper names
// (§2.3, Fig. 3), and adds the two auxiliary pieces the paper lists: an
// ingestion tool that archives data and metadata incrementally as an
// experiment runs, and a servlet-style bridge between GridFTP and HTTPS so
// browser-class clients can download experiment data.
package repo

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"neesgrid/internal/daq"
	"neesgrid/internal/nfms"
	"neesgrid/internal/nmds"
	"neesgrid/internal/telemetry"
)

// SensorDataSchema is the built-in schema for ingested sensor blocks.
const SensorDataSchema = "neesgrid.sensor-block"

// ExperimentSchema is the built-in schema for experiment descriptions —
// "metadata that described each of the three components of the experiment
// in terms of the structural configuration, material properties, and
// instrumentation" (§3.3).
const ExperimentSchema = "neesgrid.experiment"

// Repository is the façade over NMDS + NFMS. Both services remain usable
// independently, as the paper specifies.
type Repository struct {
	Meta  *nmds.Store
	Files *nfms.Service
	// Owner is the identity the repository acts as for bootstrap objects.
	Owner string
}

// New builds a repository and installs the built-in schemas.
func New(owner string) (*Repository, error) {
	r := &Repository{Meta: nmds.NewStore(), Files: nfms.New(), Owner: owner}
	_, err := r.Meta.Create(owner, SensorDataSchema, nmds.SchemaSchema, nmds.SchemaBody{
		Fields: map[string]string{
			"experiment": "string",
			"site":       "string",
			"logical":    "string",
			"channels":   "array",
			"first_step": "number",
			"last_step":  "number",
		},
		Required: []string{"experiment", "site", "logical"},
	})
	if err != nil {
		return nil, fmt.Errorf("repo: install sensor schema: %w", err)
	}
	_, err = r.Meta.Create(owner, ExperimentSchema, nmds.SchemaSchema, nmds.SchemaBody{
		Fields: map[string]string{
			"name":            "string",
			"description":     "string",
			"sites":           "array",
			"structure":       "object",
			"instrumentation": "array",
		},
		Required: []string{"name"},
	})
	if err != nil {
		return nil, fmt.Errorf("repo: install experiment schema: %w", err)
	}
	return r, nil
}

// DescribeExperiment stores the pre-experiment metadata (§3.3: uploaded to
// the repository prior to the experiment).
func (r *Repository) DescribeExperiment(owner, id string, body map[string]any) (*nmds.Object, error) {
	return r.Meta.Create(owner, id, ExperimentSchema, body)
}

// IngestFile uploads one file via a replica target and records a metadata
// object describing it, linked by logical name. If the metadata is refused
// the registration is withdrawn again, so the logical name is free for a
// corrected retry; the bytes at the replica stay until it overwrites them.
func (r *Repository) IngestFile(owner, experiment, site, logical, localPath string, replica nfms.Replica, extra map[string]any) (*nmds.Object, error) {
	obj, _, err := r.ingestFile(owner, experiment, site, logical, localPath, replica, extra)
	return obj, err
}

// ingestFile is IngestFile, and says whether it withdrew a registration.
func (r *Repository) ingestFile(owner, experiment, site, logical, localPath string, replica nfms.Replica, extra map[string]any) (obj *nmds.Object, rolledBack bool, err error) {
	if _, err := r.Files.Upload(owner, logical, localPath, replica); err != nil {
		return nil, false, err
	}
	body := map[string]any{
		"experiment": experiment,
		"site":       site,
		"logical":    logical,
	}
	for k, v := range extra {
		body[k] = v
	}
	metaID := "data:" + logical
	obj, err = r.Meta.Create(owner, metaID, SensorDataSchema, body)
	if err != nil {
		err = fmt.Errorf("repo: metadata for %q: %w", logical, err)
		if undo := r.Files.Delete(owner, logical); undo != nil {
			return nil, false, fmt.Errorf("%w; the file stays registered: %v", err, undo)
		}
		return nil, true, err
	}
	return obj, false, nil
}

// Fetch downloads a logical file to localPath.
func (r *Repository) Fetch(logical, localPath string) error {
	return r.Files.Download(logical, localPath)
}

// ---------------------------------------------------------------------------
// Ingestion tool
// ---------------------------------------------------------------------------

// Ingestor is the incremental ingestion tool of §2.3/§3.2: it polls a DAQ
// spool directory and uploads each deposited block to the repository while
// the experiment is still running.
type Ingestor struct {
	Repo       *Repository
	Spool      *daq.Spool
	Owner      string
	Experiment string
	Site       string
	// Replica returns the upload target for a block file name.
	Replica func(blockName string) nfms.Replica

	tel      atomic.Pointer[ingestCounters]
	uploaded atomic.Int64
}

// ingestCounters are the ingestor's series in a shared registry.
type ingestCounters struct {
	blocks, orphans, rollbacks *telemetry.Counter
	blockS                     *telemetry.Histogram
}

// UseTelemetry exports the ingestor's work into reg: repo.ingest.blocks
// (blocks archived), the histogram repo.ingest.block_s (upload plus both
// catalogue writes of one block), repo.ingest.orphan_blocks (archived blocks
// whose summary had to be parsed back from the file, daq.BlockSummary.Parsed)
// and repo.ingest.rollbacks (registrations withdrawn because the metadata was
// refused). Ingestors sharing a registry add into the same series. A nil
// registry disables the export.
func (ing *Ingestor) UseTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		ing.tel.Store(nil)
		return
	}
	ing.tel.Store(&ingestCounters{
		blocks:    reg.Counter("repo.ingest.blocks"),
		orphans:   reg.Counter("repo.ingest.orphan_blocks"),
		rollbacks: reg.Counter("repo.ingest.rollbacks"),
		blockS:    reg.Histogram("repo.ingest.block_s"),
	})
}

// Uploaded returns how many blocks have been ingested.
func (ing *Ingestor) Uploaded() int { return int(ing.uploaded.Load()) }

// PollOnce ingests every deposited block currently in the spool. The
// metadata of a block is the summary the spool hands over with it; the file
// is not read here except by the transport.
func (ing *Ingestor) PollOnce() ([]string, error) {
	return ing.Spool.PollOnce(func(path string, sum daq.BlockSummary) error {
		start := time.Now()
		block := filepath.Base(path)
		logical := ing.Experiment + "/" + ing.Site + "/" + block
		_, rolledBack, err := ing.Repo.ingestFile(ing.Owner, ing.Experiment, ing.Site, logical, path,
			ing.Replica(block), map[string]any{
				"channels":   sum.Channels,
				"first_step": sum.FirstStep,
				"last_step":  sum.LastStep,
			})
		t := ing.tel.Load()
		if rolledBack && t != nil {
			t.rollbacks.Inc()
		}
		if err != nil {
			return err
		}
		ing.uploaded.Add(1)
		if t != nil {
			t.blocks.Inc()
			if sum.Parsed {
				t.orphans.Inc()
			}
			t.blockS.ObserveDuration(time.Since(start))
		}
		return nil
	})
}

// Run polls at the given interval until stop closes, then drains the spool
// one final time (with a Flush so the tail block is deposited).
func (ing *Ingestor) Run(interval time.Duration, stop <-chan struct{}) error {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if _, err := ing.PollOnce(); err != nil {
				return err
			}
		case <-stop:
			if err := ing.Spool.Flush(); err != nil {
				return err
			}
			_, err := ing.PollOnce()
			return err
		}
	}
}

// ---------------------------------------------------------------------------
// GridFTP ↔ HTTPS bridge
// ---------------------------------------------------------------------------

// Bridge is the servlet of §2.3: GET /files/<logical-name> resolves the
// logical file through NFMS, fetches it over its native transport, and
// streams it to the HTTP client.
type Bridge struct {
	Repo *Repository
	// TempDir holds staging copies; defaults to os.TempDir().
	TempDir string
}

// ServeHTTP handles /files/<logical>.
func (b *Bridge) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		http.Error(w, "bridge: GET only", http.StatusMethodNotAllowed)
		return
	}
	logical := strings.TrimPrefix(req.URL.Path, "/files/")
	if logical == "" || logical == req.URL.Path {
		http.Error(w, "bridge: want /files/<logical>", http.StatusBadRequest)
		return
	}
	dir := b.TempDir
	if dir == "" {
		dir = os.TempDir()
	}
	tmp, err := os.CreateTemp(dir, "bridge-*")
	if err != nil {
		http.Error(w, "bridge: staging: "+err.Error(), http.StatusInternalServerError)
		return
	}
	tmpName := tmp.Name()
	_ = tmp.Close()
	defer os.Remove(tmpName)
	if err := b.Repo.Fetch(logical, tmpName); err != nil {
		http.Error(w, "bridge: "+err.Error(), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	http.ServeFile(w, req, tmpName)
}
