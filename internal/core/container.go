package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
)

// Self-describing container format (little endian).
//
// Every index variant serializes to one uniform envelope so that a
// server can load an index file blind — LoadAny inspects the header and
// returns the right in-memory oracle:
//
//	magic    [8]byte  "PLLBOX" + two zero bytes
//	version  uint16   container format version, always 2: flat
//	                  zero-copy columnar sections (flat.go)
//	variant  uint8    VariantUndirected | VariantDirected |
//	                  VariantWeighted | VariantDynamic
//	flags    uint8    bit 1: payload carries parent pointers (paths)
//	                  bit 2: payload carries the hub-inverted search
//	                  sections
//	bp       uint32   bit-parallel width (number of BP roots, 0 if none)
//	payload  []byte   the flat header, section table and sections
//
// Files in the retired formats — version-1 record containers and the
// headerless payloads that preceded the container — are recognized only
// to reject them with a migration hint.
var containerMagic = [8]byte{'P', 'L', 'L', 'B', 'O', 'X', 0, 0}

// legacyMagicPrefix opens every retired headerless payload format; a
// two-byte format tag followed it.
var legacyMagicPrefix = [6]byte{'P', 'L', 'L', 'I', 'D', 'X'}

// ContainerVersion is the only container format version this build
// reads and writes: the flat (zero-copy) layout of flat.go.
const ContainerVersion uint16 = 2

// containerVersionRecord is the retired record-oriented version.
const containerVersionRecord uint16 = 1

// ErrBadIndexFile is wrapped by all load-time format errors.
var ErrBadIndexFile = errors.New("core: malformed index file")

// legacyFormatError rejects a file in a retired format and says how to
// migrate it.
func legacyFormatError(what string) error {
	return fmt.Errorf("%w: %s is no longer readable; rewrite it with `pll convert` from an earlier release",
		ErrBadIndexFile, what)
}

// Variant tags index flavors inside the container header.
type Variant uint8

const (
	// VariantUndirected is the plain unweighted Index (bit-parallel
	// labels and parent pointers optional).
	VariantUndirected Variant = 1
	// VariantDirected is the DirectedIndex (two label families).
	VariantDirected Variant = 2
	// VariantWeighted is the WeightedIndex (32-bit distances).
	VariantWeighted Variant = 3
	// VariantDynamic tags a snapshot frozen from a DynamicIndex; the
	// payload is the undirected layout and loads as an Index whose Stats
	// keep the dynamic provenance.
	VariantDynamic Variant = 4
)

// String names the variant for stats output and error messages.
func (v Variant) String() string {
	switch v {
	case VariantUndirected:
		return "undirected"
	case VariantDirected:
		return "directed"
	case VariantWeighted:
		return "weighted"
	case VariantDynamic:
		return "dynamic"
	}
	return fmt.Sprintf("variant(%d)", uint8(v))
}

// Container flag bits. Bit 0 is unassigned.
const (
	// ContainerFlagPaths marks a payload with per-label parent pointers.
	ContainerFlagPaths uint8 = 1 << 1
	// ContainerFlagSearch marks a payload carrying the hub-inverted
	// search sections (secInv*), so Open serves KNN/Range/NearestIn
	// zero-copy with no lazy build.
	ContainerFlagSearch uint8 = 1 << 2

	containerKnownFlags = ContainerFlagPaths | ContainerFlagSearch
)

// containerHeaderSize is the fixed byte length of the container header.
const containerHeaderSize = 16

// ContainerHeader is the parsed fixed-size container prefix.
//
// pllvet:untrusted — fields come straight from the file; any
// allocation they size must be capped or grown behind reads.
type ContainerHeader struct {
	Version     uint16
	Variant     Variant
	Flags       uint8
	BitParallel uint32
}

func (h ContainerHeader) encode() [containerHeaderSize]byte {
	var b [containerHeaderSize]byte
	copy(b[:8], containerMagic[:])
	binary.LittleEndian.PutUint16(b[8:10], h.Version)
	b[10] = uint8(h.Variant)
	b[11] = h.Flags
	binary.LittleEndian.PutUint32(b[12:16], h.BitParallel)
	return b
}

// parseContainerHeader validates a fixed-size header buffer, magic
// included.
func parseContainerHeader(b []byte) (ContainerHeader, error) {
	if [8]byte(b[:8]) != containerMagic {
		if [6]byte(b[:6]) == legacyMagicPrefix {
			return ContainerHeader{}, legacyFormatError(fmt.Sprintf("bare index payload %q", b[:8]))
		}
		return ContainerHeader{}, fmt.Errorf("%w: unrecognized magic %q", ErrBadIndexFile, b[:8])
	}
	h := ContainerHeader{
		Version:     binary.LittleEndian.Uint16(b[8:10]),
		Variant:     Variant(b[10]),
		Flags:       b[11],
		BitParallel: binary.LittleEndian.Uint32(b[12:16]),
	}
	if h.Version == containerVersionRecord {
		return h, legacyFormatError("container version 1")
	}
	if h.Version != ContainerVersion {
		return h, fmt.Errorf("%w: unsupported container version %d (this build reads version %d)",
			ErrBadIndexFile, h.Version, ContainerVersion)
	}
	switch h.Variant {
	case VariantUndirected, VariantDirected, VariantWeighted, VariantDynamic:
	default:
		return h, fmt.Errorf("%w: unknown variant tag %d", ErrBadIndexFile, uint8(h.Variant))
	}
	if h.Flags&^containerKnownFlags != 0 {
		return h, fmt.Errorf("%w: unknown container flags %#x", ErrBadIndexFile, h.Flags)
	}
	return h, nil
}

// countWriter counts bytes for the io.WriterTo contract.
type countWriter struct {
	w io.Writer
	n int64
}

func (cw *countWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// writeContainer emits the header and then the payload, returning the
// total bytes written.
func writeContainer(w io.Writer, h ContainerHeader, payload func(io.Writer) error) (int64, error) {
	cw := &countWriter{w: w}
	hdr := h.encode()
	if _, err := cw.Write(hdr[:]); err != nil {
		return cw.n, err
	}
	if err := payload(cw); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// WriteTo writes the index as a flat container (WriteFlat without
// options). It implements io.WriterTo. Indexes frozen from a
// DynamicIndex keep the dynamic variant tag so the provenance survives
// round trips.
func (ix *Index) WriteTo(w io.Writer) (int64, error) { return ix.WriteFlat(w) }

// WriteTo writes the directed index as a flat container.
func (ix *DirectedIndex) WriteTo(w io.Writer) (int64, error) { return ix.WriteFlat(w) }

// WriteTo writes the weighted index as a flat container.
func (ix *WeightedIndex) WriteTo(w io.Writer) (int64, error) { return ix.WriteFlat(w) }

// WriteTo freezes the dynamic index and writes the snapshot as a flat
// container tagged VariantDynamic. Loading it yields a static Index
// whose Stats keep the dynamic provenance (edge insertion does not
// survive serialization).
func (di *DynamicIndex) WriteTo(w io.Writer) (int64, error) { return di.WriteFlat(w) }

// LoadAny reads a flat container onto the heap with full validation
// and returns the matching oracle: *Index, *DirectedIndex or
// *WeightedIndex. VariantDynamic containers load as a static *Index
// snapshot. Malformed input, and files in a retired format, yield an
// error wrapping ErrBadIndexFile.
func LoadAny(r io.Reader) (any, error) {
	var hdr [containerHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated container header: %v", ErrBadIndexFile, err)
	}
	h, err := parseContainerHeader(hdr[:])
	if err != nil {
		return nil, err
	}
	return loadFlatFromReader(r, h)
}

// LoadAnyFile reads an index file from a path.
func LoadAnyFile(path string) (any, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadAny(f)
}

// allocChunk bounds how many bytes the loader allocates ahead of the
// bytes actually read. Header fields of a malformed (or adversarial)
// file can declare sizes in the gigabytes while the stream holds a few
// hundred bytes; readBytesCapped therefore grows its result
// incrementally, so bogus sizes fail with a small footprint instead of
// an OOM. The pll.FuzzLoad target leans on this.
const allocChunk = 1 << 20

// readBytesCapped reads exactly n bytes, allocating in bounded chunks.
func readBytesCapped(r io.Reader, n int64, what string) ([]byte, error) {
	out := make([]byte, 0, min(n, allocChunk))
	for int64(len(out)) < n {
		k := min(n-int64(len(out)), allocChunk)
		start := len(out)
		out = append(out, make([]byte, k)...)
		if _, err := io.ReadFull(r, out[start:]); err != nil {
			return nil, fmt.Errorf("%w: truncated %s: %v", ErrBadIndexFile, what, err)
		}
	}
	return out, nil
}
