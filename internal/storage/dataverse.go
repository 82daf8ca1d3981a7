package storage

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Dataverse models the public research-data repository the tutorial's
// step 1 pulls from ("data is accessed from Dataverse public commons,
// which provides a secure and accessible environment for sharing
// scientific information publicly"): datasets carry citation metadata and
// a DOI-like persistent identifier, files live in a draft version until
// published, and published versions are immutable and anonymously
// readable.
type Dataverse struct {
	store Store

	mu       sync.Mutex
	datasets map[string]*dvDataset
	nextID   int
	// Authority is the DOI prefix used for persistent IDs.
	Authority string
}

// DatasetMeta is the citation metadata of a Dataverse dataset.
type DatasetMeta struct {
	// Title is the dataset's display title.
	Title string
	// Authors lists the creators.
	Authors []string
	// Description summarises the dataset.
	Description string
	// Subject is the discipline keyword (e.g. "Earth and Environmental Sciences").
	Subject string
}

// DatasetInfo is the public view of a dataset.
type DatasetInfo struct {
	// DOI is the persistent identifier, e.g. "doi:10.70122/NSDF/000001".
	DOI string
	// Meta is the citation metadata.
	Meta DatasetMeta
	// Version is the latest published version (0 = only a draft exists).
	Version int
	// Published is the publication time of the latest version.
	Published time.Time
	// Files lists the file names of the latest published version.
	Files []string
}

type dvDataset struct {
	meta      DatasetMeta
	version   int
	published time.Time
	// draft holds file names added since the last publish.
	draft map[string]bool
	// versions[v] lists the file names frozen in version v (1-based).
	versions map[int][]string
}

// NewDataverse creates a repository persisting file payloads to store.
func NewDataverse(store Store) *Dataverse {
	return &Dataverse{store: store, datasets: make(map[string]*dvDataset), Authority: "doi:10.70122/NSDF"}
}

// CreateDataset registers a new draft dataset and returns its DOI.
func (d *Dataverse) CreateDataset(meta DatasetMeta) (string, error) {
	if strings.TrimSpace(meta.Title) == "" {
		return "", fmt.Errorf("dataverse: dataset needs a title")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.nextID++
	doi := fmt.Sprintf("%s/%06d", d.Authority, d.nextID)
	d.datasets[doi] = &dvDataset{meta: meta, draft: make(map[string]bool), versions: make(map[int][]string)}
	return doi, nil
}

func (d *Dataverse) dataset(doi string) (*dvDataset, error) {
	ds, ok := d.datasets[doi]
	if !ok {
		return nil, fmt.Errorf("dataverse: unknown persistent id %q", doi)
	}
	return ds, nil
}

// fileKey maps a dataset file to its object-store key. Version v=0 means
// the draft area.
func (d *Dataverse) fileKey(doi string, version int, name string) string {
	clean := strings.ReplaceAll(strings.TrimPrefix(doi, "doi:"), "/", "_")
	return fmt.Sprintf("dataverse/%s/v%d/%s", clean, version, name)
}

// AddFile uploads a file into the dataset's draft version.
func (d *Dataverse) AddFile(ctx context.Context, doi, name string, data []byte) error {
	if !ValidKey(name) {
		return fmt.Errorf("dataverse: invalid file name %q", name)
	}
	d.mu.Lock()
	ds, err := d.dataset(doi)
	if err != nil {
		d.mu.Unlock()
		return err
	}
	ds.draft[name] = true
	d.mu.Unlock()
	return d.store.Put(ctx, d.fileKey(doi, 0, name), data)
}

// Publish freezes the draft as the next version: draft files are copied
// to an immutable version area and the draft is carried forward (next
// version starts from the published file set, like Dataverse's
// draft-on-top-of-release model). Returns the new version number.
func (d *Dataverse) Publish(ctx context.Context, doi string) (int, error) {
	d.mu.Lock()
	ds, err := d.dataset(doi)
	if err != nil {
		d.mu.Unlock()
		return 0, err
	}
	if len(ds.draft) == 0 {
		d.mu.Unlock()
		return 0, fmt.Errorf("dataverse: %s has no draft files to publish", doi)
	}
	version := ds.version + 1
	names := make([]string, 0, len(ds.draft))
	for n := range ds.draft {
		names = append(names, n)
	}
	sort.Strings(names)
	d.mu.Unlock()

	// Copy draft payloads into the frozen version area.
	for _, n := range names {
		data, err := d.store.Get(ctx, d.fileKey(doi, 0, n))
		if err != nil {
			return 0, fmt.Errorf("dataverse: publish %s: %w", n, err)
		}
		if err := d.store.Put(ctx, d.fileKey(doi, version, n), data); err != nil {
			return 0, fmt.Errorf("dataverse: publish %s: %w", n, err)
		}
	}

	d.mu.Lock()
	ds.version = version
	ds.published = time.Now()
	ds.versions[version] = names
	d.mu.Unlock()
	return version, nil
}

// GetFile fetches a file from the latest published version. Anonymous
// (public) access: no credential is involved.
func (d *Dataverse) GetFile(ctx context.Context, doi, name string) ([]byte, error) {
	d.mu.Lock()
	ds, err := d.dataset(doi)
	if err != nil {
		d.mu.Unlock()
		return nil, err
	}
	version := ds.version
	d.mu.Unlock()
	if version == 0 {
		return nil, fmt.Errorf("dataverse: %s has no published version", doi)
	}
	return d.store.Get(ctx, d.fileKey(doi, version, name))
}

// GetFileVersion fetches a file from a specific published version.
func (d *Dataverse) GetFileVersion(ctx context.Context, doi string, version int, name string) ([]byte, error) {
	d.mu.Lock()
	ds, err := d.dataset(doi)
	if err == nil {
		if _, ok := ds.versions[version]; !ok {
			err = fmt.Errorf("dataverse: %s has no version %d", doi, version)
		}
	}
	d.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return d.store.Get(ctx, d.fileKey(doi, version, name))
}

// Info returns the public view of a dataset.
func (d *Dataverse) Info(doi string) (DatasetInfo, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	ds, err := d.dataset(doi)
	if err != nil {
		return DatasetInfo{}, err
	}
	info := DatasetInfo{DOI: doi, Meta: ds.meta, Version: ds.version, Published: ds.published}
	if ds.version > 0 {
		info.Files = append([]string(nil), ds.versions[ds.version]...)
	}
	return info, nil
}
