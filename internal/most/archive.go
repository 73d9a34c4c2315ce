package most

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"neesgrid/internal/daq"
	"neesgrid/internal/gridftp"
	"neesgrid/internal/nfms"
	"neesgrid/internal/repo"
)

// ArchiveConfig wires the §3.2 archival path into an experiment: each
// site's DAQ deposits spool blocks which an ingestion tool uploads to the
// repository over GridFTP while the run is in progress, with metadata
// alongside.
type ArchiveConfig struct {
	// SpoolDir is the root spool directory (one subdirectory per site).
	SpoolDir string
	// StoreDir is the repository file-store root.
	StoreDir string
	// BlockSize is the spool rotation size in scans (default 50).
	BlockSize int
	// IngestEvery polls the spools every N committed steps (default 100).
	IngestEvery int
}

// archive is the running archival state of an experiment.
type archive struct {
	repo      *repo.Repository
	ftp       *gridftp.Server
	ftpAddr   string
	ingestors []*repo.Ingestor
	spools    []*daq.Spool
}

// Repo returns the repository an archiving run filled.
func (e *Experiment) Repo() *repo.Repository {
	if e.arch == nil {
		return nil
	}
	return e.arch.repo
}

// IngestedBlocks returns how many spool blocks reached the repository.
func (e *Experiment) IngestedBlocks() int {
	if e.arch == nil {
		return 0
	}
	n := 0
	for _, ing := range e.arch.ingestors {
		n += ing.Uploaded()
	}
	return n
}

// setupArchive builds the repository, GridFTP store, and per-site ingestors.
func (e *Experiment) setupArchive(cfg *ArchiveConfig) error {
	blockSize := cfg.BlockSize
	if blockSize <= 0 {
		blockSize = 50
	}
	r, err := repo.New("/O=NEES/CN=repository")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.StoreDir, 0o755); err != nil {
		return fmt.Errorf("most: archive store: %w", err)
	}
	ftp, err := gridftp.NewServer(cfg.StoreDir)
	if err != nil {
		return err
	}
	ftpAddr, err := ftp.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	// The whole archive path counts into the coordinator-side registry, so
	// <run>-metrics.json says what the run's blocks cost: deposits
	// (daq.spool.*), ingests and whether any block had to be parsed back
	// (repo.ingest.*), and connections (gridftp.client.dials against
	// gridftp.client.reuses).
	ftp.UseTelemetry(e.Telemetry)
	transport := &nfms.GridFTPTransport{}
	transport.UseTelemetry(e.Telemetry)
	r.Files.RegisterTransport("gridftp", transport)
	a := &archive{repo: r, ftp: ftp, ftpAddr: ftpAddr}
	// Pre-experiment metadata (§3.3: uploaded prior to the experiment).
	siteNames := make([]any, 0, len(e.Sites))
	for _, s := range e.Sites {
		siteNames = append(siteNames, s.Spec.Name)
	}
	if _, err := r.DescribeExperiment("/O=NEES/CN=simulation-coordinator",
		"exp:"+e.Spec.Name, map[string]any{
			"name":        e.Spec.Name,
			"description": "distributed hybrid experiment",
			"sites":       siteNames,
		}); err != nil {
		return err
	}
	for _, site := range e.Sites {
		dir := filepath.Join(cfg.SpoolDir, site.Spec.Name)
		spool, err := daq.NewSpool(dir, blockSize)
		if err != nil {
			return err
		}
		spool.UseTelemetry(e.Telemetry)
		site.DAQ.AttachSpool(spool)
		siteName := site.Spec.Name
		ing := &repo.Ingestor{
			Repo:       r,
			Spool:      spool,
			Owner:      "/O=NEES/CN=" + siteName,
			Experiment: e.Spec.Name,
			Site:       siteName,
			Replica: func(block string) nfms.Replica {
				return nfms.Replica{
					Transport: "gridftp",
					Addr:      ftpAddr,
					Path:      filepath.Join(e.Spec.Name, siteName, block),
				}
			},
		}
		ing.UseTelemetry(e.Telemetry)
		a.ingestors = append(a.ingestors, ing)
		a.spools = append(a.spools, spool)
	}
	e.arch = a
	return nil
}

// ingestTick polls every site's spool once (called from the run loop).
func (e *Experiment) ingestTick() error {
	if e.arch == nil {
		return nil
	}
	for _, ing := range e.arch.ingestors {
		if _, err := ing.PollOnce(); err != nil {
			return err
		}
	}
	return nil
}

// drainArchive flushes the spool tails, ingests the final blocks, and
// persists the run's spans next to the data.
func (e *Experiment) drainArchive() error {
	if e.arch == nil {
		return nil
	}
	for _, sp := range e.arch.spools {
		if err := sp.Flush(); err != nil {
			return err
		}
	}
	if err := e.writeSpans(); err != nil {
		return err
	}
	if err := e.writeMetrics(); err != nil {
		return err
	}
	return e.ingestTick()
}

// writeMetrics takes a final scrape across every site and the coordinator
// and persists the merged roll-up (obs.Rollup) as
// <store>/<run>-metrics.json.
func (e *Experiment) writeMetrics() error {
	if e.arch == nil || e.Spec.Archive == nil || e.obsAgg == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	e.obsAgg.ScrapeOnce(ctx)
	path := filepath.Join(e.Spec.Archive.StoreDir, e.Spec.Name+"-metrics.json")
	if err := e.obsAgg.Rollup(e.Spec.Name).WriteFile(path); err != nil {
		return fmt.Errorf("most: metrics archive: %w", err)
	}
	return nil
}

// writeSpans persists the completed run's merged span snapshot as JSONL
// (one SpanData per line) into the repository file store, so a trace of
// the run survives alongside the archived sensor data.
func (e *Experiment) writeSpans() error {
	if e.arch == nil || e.Spec.Archive == nil {
		return nil
	}
	path := filepath.Join(e.Spec.Archive.StoreDir, e.Spec.Name+"-spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("most: span archive: %w", err)
	}
	enc := json.NewEncoder(f)
	for _, sd := range e.SpanSnapshot() {
		if err := enc.Encode(sd); err != nil {
			_ = f.Close()
			return fmt.Errorf("most: span archive: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("most: span archive: %w", err)
	}
	return nil
}
