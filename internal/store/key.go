// Cache keys: the content address of one check result.
//
// A key names everything that can change the bytes of a rendered check
// report, and nothing else. The determinism contract built up by the trace
// and PCD layers (a replayed report is a pure function of the trace bytes
// and the analysis) is what makes each field's inclusion or exclusion
// sound; DESIGN.md §12 maps every field to the contract clause that
// justifies it.
//
// BodyDigest deliberately hashes the raw trace bytes. The header fields
// (program and spec digests, seed, scheduler) identify the *intended*
// execution, but two byte-different traces can share a header — a full
// recording and a step-limited partial recording of the same schedule, for
// instance — and they may check differently. Hashing the content closes
// that hole: byte-different traces never collide, which is what
// "content-addressed" promises.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"

	"doublechecker/internal/trace"
)

// FormatVersion is the result-store format version. It leads every encoded
// key, so bumping it invalidates every existing entry at once — the
// invalidation story for any change to the entry format or to what a key
// must include.
const FormatVersion = 1

// Decode errors; match with errors.Is.
var (
	// ErrCorrupt reports an encoding that does not decode cleanly. The
	// store treats every corrupt artifact as a miss, never a hit.
	ErrCorrupt = errors.New("store: corrupt")
	// ErrVersion reports an encoding written by another store format
	// version (a stale cache after a format bump — a miss, not an error).
	ErrVersion = errors.New("store: format version mismatch")
)

// Key is the content address of one check result: the store format, the
// trace's identity (header fields plus a digest of the raw bytes), and the
// output-affecting checker configuration.
type Key struct {
	// TraceVersion is the trace file format version the entry was computed
	// from.
	TraceVersion int
	// ProgramDigest and SpecDigest are the trace header's FNV-1a digests of
	// the embedded program and atomicity specification.
	ProgramDigest uint64
	SpecDigest    uint64
	// Seed and Sched identify the recorded schedule; Source is the header's
	// provenance note. All three appear verbatim in the rendered report's
	// identity line, so they are output-affecting.
	Seed   int64
	Sched  string
	Source string
	// BodyDigest is FNV-1a over the complete raw trace bytes — the content
	// address proper. It subsumes the header fields for correctness; they
	// ride along for auditability and rendering.
	BodyDigest uint64
	// Analysis is the checker configuration's canonical name (dc-single,
	// velodrome, ...). Different analyses report different violations.
	Analysis string
}

// maxKeyString bounds decoded string fields; a key's strings are scheduler
// descriptors, analysis names, and source notes, never megabytes.
const maxKeyString = 1 << 16

// Encode renders the key canonically: the store format version, then every
// field in declaration order, varint- and length-prefix-encoded. The
// encoding is what ID hashes and what entries embed for verification.
func (k Key) Encode() []byte {
	b := make([]byte, 0, 64+len(k.Sched)+len(k.Source)+len(k.Analysis))
	b = binary.AppendUvarint(b, FormatVersion)
	b = binary.AppendUvarint(b, uint64(k.TraceVersion))
	b = binary.AppendUvarint(b, k.ProgramDigest)
	b = binary.AppendUvarint(b, k.SpecDigest)
	b = binary.AppendVarint(b, k.Seed)
	b = appendString(b, k.Sched)
	b = appendString(b, k.Source)
	b = binary.AppendUvarint(b, k.BodyDigest)
	b = appendString(b, k.Analysis)
	return b
}

// DecodeKey decodes a canonical key encoding. It is strict: a version
// mismatch is ErrVersion, anything else that does not round-trip —
// truncation, trailing bytes, oversized strings — is ErrCorrupt.
func DecodeKey(b []byte) (Key, error) {
	d := &keyDec{b: b}
	var k Key
	ver, err := d.uvarint("format version")
	if err != nil {
		return k, err
	}
	if ver != FormatVersion {
		return k, fmt.Errorf("%w: key is v%d, this store writes v%d", ErrVersion, ver, FormatVersion)
	}
	tv, err := d.uvarint("trace version")
	if err != nil {
		return k, err
	}
	k.TraceVersion = int(tv)
	if k.ProgramDigest, err = d.uvarint("program digest"); err != nil {
		return k, err
	}
	if k.SpecDigest, err = d.uvarint("spec digest"); err != nil {
		return k, err
	}
	if k.Seed, err = d.varint("seed"); err != nil {
		return k, err
	}
	if k.Sched, err = d.string("sched"); err != nil {
		return k, err
	}
	if k.Source, err = d.string("source"); err != nil {
		return k, err
	}
	if k.BodyDigest, err = d.uvarint("body digest"); err != nil {
		return k, err
	}
	if k.Analysis, err = d.string("analysis"); err != nil {
		return k, err
	}
	if d.off != len(d.b) {
		return k, fmt.Errorf("%w: %d trailing bytes after key", ErrCorrupt, len(d.b)-d.off)
	}
	return k, nil
}

// ID is the key's content address: the hex SHA-256 of its canonical
// encoding, used as the on-disk file name and the in-memory map key. Disk
// loads still verify the embedded key byte for byte, so even a hash
// collision (or a file planted under the wrong name) decodes to a miss.
func (k Key) ID() string {
	sum := sha256.Sum256(k.Encode())
	return hex.EncodeToString(sum[:])
}

// BodyDigest hashes raw trace bytes for Key.BodyDigest: FNV-1a 64, the same
// cheap identity the trace format stamps into its headers.
func BodyDigest(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// TraceKey assembles the cache key for checking the trace described by hdr
// (with raw-byte digest bodyDigest) under the named analysis. Every caller
// building a key goes through this one constructor so the field mapping
// cannot drift between the service and the CLIs.
func TraceKey(hdr *trace.Header, bodyDigest uint64, analysis string) Key {
	return Key{
		TraceVersion:  hdr.Version,
		ProgramDigest: hdr.ProgramDigest,
		SpecDigest:    hdr.SpecDigest,
		Seed:          hdr.Seed,
		Sched:         hdr.Sched,
		Source:        hdr.Source,
		BodyDigest:    bodyDigest,
		Analysis:      analysis,
	}
}

// appendString appends a length-prefixed string.
func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// keyDec is a strict cursor over one encoding; shared with the entry
// decoder.
type keyDec struct {
	b   []byte
	off int
}

func (d *keyDec) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(d.b[d.off:])
	// Reject non-minimal encodings (0x80 0x00 for 0, ...): the codec is
	// canonical, so every value has exactly one accepted byte form.
	if n <= 0 || n != len(binary.AppendUvarint(nil, v)) {
		return 0, fmt.Errorf("%w: bad %s at offset %d", ErrCorrupt, what, d.off)
	}
	d.off += n
	return v, nil
}

func (d *keyDec) varint(what string) (int64, error) {
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 || n != len(binary.AppendVarint(nil, v)) {
		return 0, fmt.Errorf("%w: bad %s at offset %d", ErrCorrupt, what, d.off)
	}
	d.off += n
	return v, nil
}

func (d *keyDec) string(what string) (string, error) {
	n, err := d.uvarint(what + " length")
	if err != nil {
		return "", err
	}
	if n > maxKeyString || n > uint64(len(d.b)-d.off) {
		return "", fmt.Errorf("%w: %s length %d exceeds payload", ErrCorrupt, what, n)
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s, nil
}

func (d *keyDec) bytes(n uint64, what string) ([]byte, error) {
	if n > uint64(len(d.b)-d.off) {
		return nil, fmt.Errorf("%w: %s length %d exceeds payload", ErrCorrupt, what, n)
	}
	p := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	return p, nil
}
