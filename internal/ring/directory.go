package ring

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"repro/internal/wire"
)

// Node is one qbcloud in the ring.
type Node struct {
	// ID is the node's stable identity on the hash ring; the coordinator
	// uses the listen address, which must therefore be stable across
	// restarts (placement is a pure function of the IDs).
	ID string
	// Addr is the node's wire listen address.
	Addr string
	// Alive is the coordinator's last health observation. It never moves
	// placement and routers ignore it (they order failover by their own
	// down-cooldown); operators read it from qbadmin ring.
	Alive bool
}

// Directory is the placement map a qbring coordinator serves: the
// configured membership, the replication factor, and a version counter
// bumped on every observable change. Routers fetch it once, at dial time.
//
// The wire layer carries it as an opaque gob blob (wire must not depend
// on this package), so the directory schema can evolve without touching
// the protocol.
type Directory struct {
	Version  uint64
	Replicas int
	Nodes    []Node
}

// Encode serialises the directory into its wire blob form.
func (d *Directory) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(d); err != nil {
		return nil, fmt.Errorf("ring: directory encode: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeDirectory parses a directory blob.
func DecodeDirectory(blob []byte) (*Directory, error) {
	d := new(Directory)
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(d); err != nil {
		return nil, fmt.Errorf("ring: directory decode: %w", err)
	}
	return d, nil
}

// FetchDirectory pulls the current directory from a coordinator
// connection.
func FetchDirectory(c *wire.Client) (*Directory, error) {
	blob, err := c.RingDirectory()
	if err != nil {
		return nil, err
	}
	return DecodeDirectory(blob)
}
