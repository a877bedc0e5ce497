package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"

	"doublechecker/internal/vm"
)

// Event opcodes within a chunk payload. Access events fold the access class
// and the read/write bit into the opcode: opAccessBase | class<<1 | write.
const (
	opThreadStart = byte(0x01)
	opThreadExit  = byte(0x02)
	opTxBegin     = byte(0x03)
	opTxEnd       = byte(0x04)
	opProgramEnd  = byte(0x05)
	opBlockedSet  = byte(0x06)
	opAccessBase  = byte(0x10) // 0x10..0x15: class (0..2) << 1 | write
	opAccessMax   = byte(0x15)
)

// chunkTarget is the payload size at which the writer flushes a chunk.
const chunkTarget = 32 << 10

// maxChunk bounds a decoded chunk payload. Event chunks flush at chunkTarget
// and the header chunk scales with the program, so any length beyond this is
// a corrupt or adversarial frame — reject it before allocating, rather than
// trusting the declared size.
const maxChunk = 16 << 20

// buf is a tiny append-only varint encoder.
type buf struct{ b []byte }

func (w *buf) uvarint(v uint64) { w.b = binary.AppendUvarint(w.b, v) }
func (w *buf) varint(v int64)   { w.b = binary.AppendVarint(w.b, v) }
func (w *buf) byte(c byte)      { w.b = append(w.b, c) }
func (w *buf) bytes(p []byte)   { w.b = append(w.b, p...) }
func (w *buf) string(s string)  { w.uvarint(uint64(len(s))); w.b = append(w.b, s...) }
func (w *buf) reset()           { w.b = w.b[:0] }
func (w *buf) len() int         { return len(w.b) }

// writeChunk frames payload (uvarint length, CRC32, payload) onto out.
func writeChunk(out io.Writer, payload []byte) error {
	var hdr [binary.MaxVarintLen64 + 4]byte
	n := binary.PutUvarint(hdr[:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[n:], crc32.ChecksumIEEE(payload))
	if _, err := out.Write(hdr[:n+4]); err != nil {
		return err
	}
	_, err := out.Write(payload)
	return err
}

// writeEndMarker writes the zero-length chunk terminating the event stream.
func writeEndMarker(out io.Writer) error {
	_, err := out.Write([]byte{0})
	return err
}

// dec is a cursor over one decoded payload.
type dec struct {
	b   []byte
	off int
}

func (d *dec) remaining() int { return len(d.b) - d.off }

func (d *dec) uvarint() (uint64, error) {
	// Most event operands fit in one byte; take those directly.
	if d.off < len(d.b) && d.b[d.off] < 0x80 {
		d.off++
		return uint64(d.b[d.off-1]), nil
	}
	return d.longUvarint()
}

func (d *dec) longUvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad uvarint at payload offset %d", ErrCorrupt, d.off)
	}
	d.off += n
	return v, nil
}

func (d *dec) varint() (int64, error) {
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad varint at payload offset %d", ErrCorrupt, d.off)
	}
	d.off += n
	return v, nil
}

func (d *dec) byte() (byte, error) {
	if d.off >= len(d.b) {
		return 0, fmt.Errorf("%w: payload ends mid-event", ErrCorrupt)
	}
	c := d.b[d.off]
	d.off++
	return c, nil
}

func (d *dec) string() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(d.remaining()) {
		return "", fmt.Errorf("%w: string length %d exceeds payload", ErrCorrupt, n)
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s, nil
}

// readChunk reads one framed chunk into buf, allocating a larger buffer only
// when the payload does not fit, so the returned payload overwrites
// whatever buf held. A zero-length chunk returns (nil, false, nil): the end
// marker.
func readChunk(in io.ByteReader, full io.Reader, buf []byte) (payload []byte, ok bool, err error) {
	n, err := binary.ReadUvarint(in)
	if err != nil {
		switch err {
		case io.EOF:
			return nil, false, fmt.Errorf("%w: missing end marker", ErrTruncated)
		case errVarintOverflow:
			return nil, false, fmt.Errorf("%w: chunk length overflows 64 bits", ErrCorrupt)
		}
		return nil, false, readErr(err, "chunk length cut short")
	}
	if n == 0 {
		return nil, false, nil
	}
	if n > maxChunk {
		return nil, false, fmt.Errorf("%w: chunk length %d exceeds format maximum %d", ErrCorrupt, n, maxChunk)
	}
	var crcb [4]byte
	if _, err := io.ReadFull(full, crcb[:]); err != nil {
		return nil, false, readErr(err, "chunk CRC cut short")
	}
	if uint64(cap(buf)) < n {
		buf = make([]byte, n)
	}
	payload = buf[:n]
	if _, err := io.ReadFull(full, payload); err != nil {
		return nil, false, readErr(err, fmt.Sprintf("chunk payload cut short (want %d bytes)", n))
	}
	want := binary.LittleEndian.Uint32(crcb[:])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, false, fmt.Errorf("%w: chunk CRC mismatch (got %08x, want %08x)", ErrCorrupt, got, want)
	}
	return payload, true, nil
}

// errVarintOverflow is the error binary.ReadUvarint returns for a varint
// wider than 64 bits: a malformed frame, not a failed read. The package
// does not export it, so it is captured once here.
var errVarintOverflow = func() error {
	_, err := binary.ReadUvarint(bytes.NewReader(bytes.Repeat([]byte{0xff}, binary.MaxVarintLen64)))
	return err
}()

// readErr classifies an underlying read failure: a stream that simply ends
// (EOF-shaped) is a truncated file, anything else is a transport fault
// (ErrIO) with the real error preserved in the wrap chain.
func readErr(err error, what string) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("%w: %s", ErrTruncated, what)
	}
	return fmt.Errorf("%w: %s: %w", ErrIO, what, err)
}

// encodeProgram serializes prog structurally — IDs are preserved exactly, so
// replayed events resolve to the same methods, threads, and objects as the
// live run's.
func encodeProgram(w *buf, prog *vm.Program) {
	w.string(prog.Name)
	w.uvarint(uint64(prog.NumObjects))
	w.uvarint(uint64(len(prog.ArrayLens)))
	// Deterministic order: by object ID.
	arrays := make([]vm.ObjectID, 0, len(prog.ArrayLens))
	for obj := range prog.ArrayLens {
		arrays = append(arrays, obj)
	}
	for i := 1; i < len(arrays); i++ {
		for j := i; j > 0 && arrays[j] < arrays[j-1]; j-- {
			arrays[j], arrays[j-1] = arrays[j-1], arrays[j]
		}
	}
	for _, obj := range arrays {
		w.uvarint(uint64(obj))
		w.uvarint(uint64(prog.ArrayLens[obj]))
	}
	w.uvarint(uint64(len(prog.Methods)))
	for _, m := range prog.Methods {
		w.string(m.Name)
		w.uvarint(uint64(len(m.Body)))
		for _, op := range m.Body {
			w.byte(byte(op.Kind))
			w.varint(int64(op.Obj))
			w.varint(int64(op.Field))
			w.varint(int64(op.Target))
		}
	}
	w.uvarint(uint64(len(prog.Threads)))
	for _, t := range prog.Threads {
		w.uvarint(uint64(t.Entry))
		auto := byte(0)
		if t.AutoStart {
			auto = 1
		}
		w.byte(auto)
	}
}

func decodeProgram(d *dec) (*vm.Program, error) {
	name, err := d.string()
	if err != nil {
		return nil, err
	}
	numObjects, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	nArrays, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	prog := &vm.Program{Name: name, NumObjects: int(numObjects)}
	// Each array entry costs at least two bytes, so a count beyond the
	// remaining payload is corrupt; check before sizing the map.
	if nArrays > uint64(d.remaining())/2 {
		return nil, fmt.Errorf("%w: array count %d exceeds payload", ErrCorrupt, nArrays)
	}
	if nArrays > 0 {
		prog.ArrayLens = make(map[vm.ObjectID]int, nArrays)
	}
	for i := uint64(0); i < nArrays; i++ {
		obj, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		length, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		prog.ArrayLens[vm.ObjectID(obj)] = int(length)
	}
	nMethods, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nMethods; i++ {
		mname, err := d.string()
		if err != nil {
			return nil, err
		}
		bodyLen, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if bodyLen > uint64(d.remaining()) {
			return nil, fmt.Errorf("%w: method body length %d exceeds payload", ErrCorrupt, bodyLen)
		}
		m := &vm.Method{ID: vm.MethodID(i), Name: mname, Body: make([]vm.Op, bodyLen)}
		for pc := range m.Body {
			kind, err := d.byte()
			if err != nil {
				return nil, err
			}
			obj, err := d.varint()
			if err != nil {
				return nil, err
			}
			field, err := d.varint()
			if err != nil {
				return nil, err
			}
			target, err := d.varint()
			if err != nil {
				return nil, err
			}
			m.Body[pc] = vm.Op{Kind: vm.OpKind(kind), Obj: vm.ObjectID(obj),
				Field: vm.FieldID(field), Target: int32(target)}
		}
		prog.Methods = append(prog.Methods, m)
	}
	nThreads, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nThreads; i++ {
		entry, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		auto, err := d.byte()
		if err != nil {
			return nil, err
		}
		prog.Threads = append(prog.Threads, vm.ThreadDecl{
			ID: vm.ThreadID(i), Entry: vm.MethodID(entry), AutoStart: auto != 0,
		})
	}
	return prog, nil
}

// digest64 is FNV-1a over an encoding — the cheap identity stamped into
// headers for diffing and corpus bookkeeping.
func digest64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

func encodeCounts(w *buf, c vm.EventCounts) {
	w.uvarint(c.ThreadStarts)
	w.uvarint(c.ThreadExits)
	w.uvarint(c.TxBegins)
	w.uvarint(c.TxEnds)
	w.uvarint(c.FieldAccesses)
	w.uvarint(c.ArrayAccesses)
	w.uvarint(c.SyncAccesses)
}

func decodeCounts(d *dec) (vm.EventCounts, error) {
	var c vm.EventCounts
	for _, p := range []*uint64{
		&c.ThreadStarts, &c.ThreadExits, &c.TxBegins, &c.TxEnds,
		&c.FieldAccesses, &c.ArrayAccesses, &c.SyncAccesses,
	} {
		v, err := d.uvarint()
		if err != nil {
			return c, err
		}
		*p = v
	}
	return c, nil
}
