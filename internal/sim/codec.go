package sim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"repro/internal/stats"
)

// The checkpoint and partial payload codec: little-endian struct of
// arrays. A slice of records travels as a table, one column per field
// (codec_layout.go): 64-bit RNG words and float64 bit patterns as fixed
// 8-byte words, every other integer as a uvarint, zigzag-encoded when
// signed. Everything else is written field by field. Every section
// starts with its length, which the decoder checks against the bytes
// left before it allocates, so decoding N bytes allocates O(N) whatever
// the input. Every value has one encoding and the decoder accepts only
// that one, so equal values encode to equal bytes.

// ErrMalformedPayload reports a checkpoint or partial payload that does
// not parse: a section longer than the bytes left could hold, a value
// out of its field's range, a non-canonical encoding or trailing bytes.
var ErrMalformedPayload = errors.New("sim: malformed payload")

// encoder writes a payload in one pass and assembles it at the end
// (bytes) in one buffer of the exact size. Everything but the table
// columns is appended to buf. A table is staged a block of rows at a
// time in block (allocated by the first table), and each block is
// appended column by column to that column's own buffer in cols, which
// stay apart until the assembly; tables records, per table, where its
// columns go in buf and how many there are. An encoder may be reused:
// its buffers keep their capacity, so one that writes payloads of one
// shape over and over (a shard's sections, liveShard) grows them only
// once and then allocates just the assembled bytes.
type encoder struct {
	buf    []byte
	cols   [][]byte
	ncols  int // columns of cols in use
	tables []tableMark
	block  *cols
}

// tableMark places a table's ncols columns, the next ones in
// encoder.cols, at offset at of encoder.buf.
type tableMark struct{ at, ncols int }

// reset readies e for a new payload, keeping its buffers.
func (e *encoder) reset() {
	e.buf, e.ncols, e.tables = e.buf[:0], 0, e.tables[:0]
}

// bytes assembles the payload after prefix, in a new buffer with room
// for extra more bytes.
func (e *encoder) bytes(prefix []byte, extra int) []byte {
	size := len(prefix) + len(e.buf) + extra
	for _, col := range e.cols[:e.ncols] {
		size += len(col)
	}
	out := append(make([]byte, 0, size), prefix...)
	prev, c := 0, 0
	for _, t := range e.tables {
		out = append(out, e.buf[prev:t.at]...)
		for _, col := range e.cols[c : c+t.ncols] {
			out = append(out, col...)
		}
		prev, c = t.at, c+t.ncols
	}
	return append(out, e.buf[prev:]...)
}

func (e *encoder) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

func (e *encoder) varint(v int64) { e.uvarint(zigzag(v)) }

func (e *encoder) word(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

func (e *encoder) flag(b bool) { e.uvarint(uint64(b2i(b))) }

func (e *encoder) count(n int) { e.uvarint(uint64(n)) }

func (e *encoder) str(s string) {
	e.count(len(s))
	e.buf = append(e.buf, s...)
}

func (e *encoder) moments(m *stats.Moments) {
	b, _ := m.MarshalBinary() // never fails
	e.buf = append(e.buf, b...)
}

func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(v uint64) int64 { return int64(v>>1) ^ -int64(v&1) }

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// decoder reads a payload. The first error sticks: later reads return
// zero values, and callers check err before they trust what they built.
type decoder struct {
	buf  []byte // the bytes not yet read
	err  error
	cols cols
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: "+format, append([]any{ErrMalformedPayload}, args...)...)
	}
}

// readUvarint is binary.Uvarint that also rejects a redundant trailing
// zero byte, so every value has exactly one encoding.
func readUvarint(b []byte) (uint64, int) {
	v, n := binary.Uvarint(b)
	if n > 1 && b[n-1] == 0 {
		return 0, 0
	}
	return v, n
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := readUvarint(d.buf)
	if n <= 0 {
		d.fail("truncated, overlong or non-canonical uvarint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) varint() int64 { return unzigzag(d.uvarint()) }

func (d *decoder) word() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 8 {
		d.fail("truncated word")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v
}

func (d *decoder) flag() bool {
	v := d.uvarint()
	if v > 1 {
		d.fail("flag %d", v)
	}
	return v == 1
}

// int reads a signed value that must fit in an int.
func (d *decoder) int() int {
	v := d.varint()
	if int64(int(v)) != v {
		d.fail("value %d overflows int", v)
	}
	return int(v)
}

// count reads a section's element count, failing unless the bytes left
// could hold that many elements of at least min bytes each.
func (d *decoder) count(what string, min int) int {
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.buf)/min) {
		d.fail("%s section claims %d elements in %d bytes", what, n, len(d.buf))
		return 0
	}
	return int(n)
}

func (d *decoder) str(what string) string {
	n := d.count(what, 1)
	if d.err != nil {
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

func (d *decoder) moments(m *stats.Moments) {
	if d.err != nil {
		return
	}
	if len(d.buf) < stats.MomentsBinaryLen {
		d.fail("truncated moments")
		return
	}
	if err := m.UnmarshalBinary(d.buf[:stats.MomentsBinaryLen]); err != nil {
		d.fail("%v", err)
		return
	}
	d.buf = d.buf[stats.MomentsBinaryLen:]
}

// maxCols is the widest record's column count (TermCheckpoint's).
const maxCols = 18

// colBlock is how many rows of a table move between records and columns
// at a time: a block's records are visited once for all their columns,
// so each is read or written while it is in cache. It is 256 so a uint8
// row index needs no bounds check.
const colBlock = 256

// cols holds one block of a table's columns, vals[k][j] the value of
// column k for row j as a uint64 wire value: unsigned fields as they
// are, signed ones zigzag-encoded, bools as 0/1 and floats as their bit
// patterns. Encoding, a layout's wire function fills vals from a block
// of records; decoding, it stores vals back into them and sets bad when
// a value does not fit its field.
type cols struct {
	decoding bool
	bad      bool
	vals     [maxCols][colBlock]uint64
}

// The column helpers a wire function calls, one per field type: field p
// of row j is column k.

func uint64Col(c *cols, k int, j uint8, p *uint64) {
	v := &c.vals[k][j]
	if !c.decoding {
		*v = *p
		return
	}
	*p = *v
}

func uint32Col(c *cols, k int, j uint8, p *uint32) {
	v := &c.vals[k][j]
	if !c.decoding {
		*v = uint64(*p)
		return
	}
	*p = uint32(*v)
	if *v > math.MaxUint32 {
		c.bad = true
	}
}

func int64Col(c *cols, k int, j uint8, p *int64) {
	v := &c.vals[k][j]
	if !c.decoding {
		*v = zigzag(*p)
		return
	}
	*p = unzigzag(*v)
}

func int32Col(c *cols, k int, j uint8, p *int32) {
	v := &c.vals[k][j]
	if !c.decoding {
		*v = zigzag(int64(*p))
		return
	}
	x := unzigzag(*v)
	*p = int32(x)
	if x != int64(*p) {
		c.bad = true
	}
}

func intCol(c *cols, k int, j uint8, p *int) {
	v := &c.vals[k][j]
	if !c.decoding {
		*v = zigzag(int64(*p))
		return
	}
	x := unzigzag(*v)
	*p = int(x)
	if x != int64(*p) {
		c.bad = true
	}
}

func boolCol(c *cols, k int, j uint8, p *bool) {
	v := &c.vals[k][j]
	if !c.decoding {
		*v = uint64(b2i(*p))
		return
	}
	*p = *v == 1
	if *v > 1 {
		c.bad = true
	}
}

func float64Col(c *cols, k int, j uint8, p *float64) {
	v := &c.vals[k][j]
	if !c.decoding {
		*v = math.Float64bits(*p)
		return
	}
	*p = math.Float64frombits(*v)
}

// A layout is how a record type travels as a table. kinds has one byte
// per column: 'v' for a uvarint column, 'w' for a column of 8-byte
// words. wire visits a block of at most colBlock records, passing each
// field with its row and column number to its column helper.
type layout[T any] struct {
	kinds string
	wire  func(rows []T, c *cols)
}

// minRow is the smallest encoding of one record.
func (l layout[T]) minRow() int {
	n := 0
	for _, k := range []byte(l.kinds) {
		n += 1 + 7*b2i(k == 'w')
	}
	return n
}

// A table is a record slice on the wire: its length n, then (when n > 0)
// the byte length of each column, then the columns one after another.
// The lengths let the decoder walk every column a block at a time and
// check each against the bytes left before it allocates.

// putTable writes rows as a table.
func putTable[T any](e *encoder, rows []T, l layout[T]) {
	e.table(len(rows), l.kinds, func(lo, hi int, c *cols) { l.wire(rows[lo:hi], c) })
}

// table writes n rows as a table of columns of the given kinds; wire
// fills c.vals with rows [lo, hi), at most colBlock of them. Whether the
// rows are a record slice (putTable) or live state the caller walks
// (putLiveShard), this one writer lays them out. Each column buffer is
// first grown to the column's smallest size, n bytes or 8n for words,
// which is its exact size for most columns.
func (e *encoder) table(n int, kinds string, wire func(lo, hi int, c *cols)) {
	e.count(n)
	if n == 0 {
		return
	}
	if e.block == nil {
		e.block = new(cols)
	}
	c := e.block
	c.decoding = false
	first := e.ncols
	e.ncols += len(kinds)
	for len(e.cols) < e.ncols {
		e.cols = append(e.cols, nil)
	}
	bufs := e.cols[first:e.ncols]
	for k := range bufs {
		bufs[k] = slices.Grow(bufs[k][:0], n+7*n*b2i(kinds[k] == 'w'))
	}
	for lo := 0; lo < n; lo += colBlock {
		hi := min(lo+colBlock, n)
		wire(lo, hi, c)
		for k := range bufs {
			bufs[k] = appendColumn(bufs[k], kinds[k], c.vals[k][:hi-lo])
		}
	}
	for _, b := range bufs {
		e.uvarint(uint64(len(b)))
	}
	e.tables = append(e.tables, tableMark{at: len(e.buf), ncols: len(kinds)})
}

// appendColumn appends a block of one column's wire values to b, as
// 8-byte words for kind 'w' and as uvarints for kind 'v'.
func appendColumn(b []byte, kind byte, vs []uint64) []byte {
	if kind == 'w' {
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
		return b
	}
	for _, v := range vs {
		if v < 0x80 {
			b = append(b, byte(v))
			continue
		}
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// getTable reads a table putTable wrote; empty decodes as nil. Before it
// allocates the rows it checks their count and every column's byte
// length against the bytes left: a word column holds exactly 8 bytes a
// row, a uvarint column 1 to 10.
func getTable[T any](d *decoder, what string, l layout[T]) []T {
	n := d.count(what, l.minRow())
	if n == 0 || d.err != nil {
		return nil
	}
	ncols := len(l.kinds)
	var offs, ends [maxCols]int
	total := 0
	for k := range ncols {
		// Clamped, so hostile lengths cannot overflow the sum.
		size := int(min(d.uvarint(), 10*uint64(n)+1))
		lo, hi := n, 10*n
		if l.kinds[k] == 'w' {
			lo, hi = 8*n, 8*n
		}
		if size < lo || size > hi {
			d.fail("%s column %d of %d rows holds %d bytes", what, k, n, size)
		}
		offs[k], total = total, total+size
		ends[k] = total
	}
	// The column bytes follow all the lengths.
	if d.err == nil && total > len(d.buf) {
		d.fail("%s columns claim %d bytes, %d left", what, total, len(d.buf))
	}
	if d.err != nil {
		return nil
	}
	data := d.buf[:total]
	d.buf = d.buf[total:]
	rows := make([]T, n)
	c := &d.cols
	c.decoding, c.bad = true, false
	for lo := 0; lo < n; lo += colBlock {
		hi := min(lo+colBlock, n)
		for k := range ncols {
			col, off := data[:ends[k]], offs[k]
			vs := c.vals[k][:hi-lo]
			if l.kinds[k] == 'w' {
				for j := range vs {
					vs[j] = binary.LittleEndian.Uint64(col[off:])
					off += 8
				}
			} else {
				for j := range vs {
					v, m := readUvarint(col[off:])
					if m <= 0 {
						d.fail("%s column %d: truncated, overlong or non-canonical uvarint", what, k)
						return nil
					}
					vs[j] = v
					off += m
				}
			}
			offs[k] = off
		}
		l.wire(rows[lo:hi], c)
		if c.bad {
			d.fail("%s: a value out of its field's range", what)
			return nil
		}
	}
	for k := range ncols {
		if offs[k] != ends[k] {
			d.fail("%s column %d: %d stray bytes", what, k, ends[k]-offs[k])
			return nil
		}
	}
	return rows
}

// sectionSize returns the encoded size of v under put; applied to a
// zero value, it is the smallest encoding of a record, for count checks.
func sectionSize[T any](put func(*encoder, *T), v *T) int {
	return len(encodePayload(nil, put, v))
}

// encodePayload returns the payload put writes for v, in a buffer of its
// own. e may be nil, or an encoder to reuse.
func encodePayload[T any](e *encoder, put func(*encoder, *T), v *T) []byte {
	if e == nil {
		e = &encoder{}
	}
	e.reset()
	put(e, v)
	return e.bytes(nil, 0)
}

// encodeFramed is the wire frame checkpoints and partials share: the
// format's magic/version header, the payload put writes, and a
// big-endian CRC32 trailer over the payload.
func encodeFramed[T any](magic []byte, put func(*encoder, *T), v *T) []byte {
	e := &encoder{}
	put(e, v)
	b := e.bytes(magic, 4)
	return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b[len(magic):]))
}

// writeFramed streams encodeFramed's frame for a payload held in
// pieces (a CheckpointFrame): magic, each piece in order, then the CRC32
// of their concatenation. It returns the number of bytes written.
func writeFramed(w io.Writer, magic []byte, pieces [][]byte) (int64, error) {
	var total int64
	write := func(b []byte) error {
		n, err := w.Write(b)
		total += int64(n)
		return err
	}
	if err := write(magic); err != nil {
		return total, err
	}
	var crc uint32
	for _, p := range pieces {
		crc = crc32.Update(crc, crc32.IEEETable, p)
		if err := write(p); err != nil {
			return total, err
		}
	}
	return total, write(binary.BigEndian.AppendUint32(nil, crc))
}

// decodeFramed checks the header and trailer encodeFramed wrote and
// decodes the whole payload into v with get; what names the format in
// errors.
func decodeFramed[T any](magic []byte, what string, get func(*decoder, *T), data []byte, v *T) error {
	if len(data) < len(magic)+4 || string(data[:len(magic)]) != string(magic) {
		return fmt.Errorf("sim: not a %s (bad magic)", what)
	}
	payload := data[len(magic) : len(data)-4]
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(data[len(data)-4:]) {
		return fmt.Errorf("sim: %s checksum mismatch", what)
	}
	d := &decoder{buf: payload}
	get(d, v)
	if d.err == nil && len(d.buf) > 0 {
		d.fail("%d trailing bytes", len(d.buf))
	}
	if d.err != nil {
		return fmt.Errorf("sim: decoding %s: %w", what, d.err)
	}
	return nil
}
