package owner

import (
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/relation"
)

// metadataSnapshot is the owner's durable state: everything needed to
// resume querying an already-outsourced relation — except the master key,
// which the caller supplies by constructing the technique, and the cloud
// stores, which live at the cloud. It contains plaintext values and
// counts, so it must be stored as securely as the master key.
type metadataSnapshot struct {
	Attr       string
	AttrIdx    int
	Schema     relation.Schema
	SensCounts []relation.ValueCount
	NSCounts   []relation.ValueCount
	FakeCounts map[string]int
	Bins       core.BinsSnapshot
}

// SaveMetadata serialises the owner's metadata. The owner must have
// outsourced already.
func (o *Owner) SaveMetadata(w io.Writer) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.bins == nil {
		return ErrNotOutsourced
	}
	snap := metadataSnapshot{
		Attr:       o.attr,
		AttrIdx:    o.attrIdx,
		Schema:     o.schema,
		SensCounts: countsSlice(o.sensCounts),
		NSCounts:   countsSlice(o.nsCounts),
		FakeCounts: o.fakeCounts,
		Bins:       o.bins.Snapshot(),
	}
	if err := gob.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("owner: saving metadata: %w", err)
	}
	return nil
}

// LoadMetadata restores a previously saved owner state and attaches the
// given clear-text backend (which must already hold the non-sensitive
// partition — e.g. a qbcloud restored from its own snapshot, or a
// long-running remote cloud). The technique passed at construction must
// use the same keys and point at the same encrypted store as the session
// that saved the metadata.
func (o *Owner) LoadMetadata(r io.Reader, backend cloud.PlainBackend) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	var snap metadataSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("owner: loading metadata: %w", err)
	}
	if snap.Attr != o.attr {
		return fmt.Errorf("owner: metadata is for attribute %q, owner configured for %q", snap.Attr, o.attr)
	}
	o.attrIdx = snap.AttrIdx
	o.schema = snap.Schema
	o.sensCounts = make(map[string]*relation.ValueCount, len(snap.SensCounts))
	for i := range snap.SensCounts {
		vc := snap.SensCounts[i]
		o.sensCounts[vc.Value.Key()] = &vc
	}
	o.nsCounts = make(map[string]*relation.ValueCount, len(snap.NSCounts))
	for i := range snap.NSCounts {
		vc := snap.NSCounts[i]
		o.nsCounts[vc.Value.Key()] = &vc
	}
	o.fakeCounts = snap.FakeCounts
	if o.fakeCounts == nil {
		o.fakeCounts = make(map[string]int)
	}
	o.bins = core.FromSnapshot(snap.Bins)
	o.dropBins()
	o.backend = backend
	o.server = cloud.Attach(backend)
	return nil
}
