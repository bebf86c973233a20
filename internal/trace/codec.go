package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Binary trace format:
//
//	magic   [4]byte "SWCT"
//	version uint8   (1)
//	ncpu    uint8
//	count   uint64  little-endian record count
//	records: per record
//	    header byte: bits 0-1 kind, bit 2 shared flag, bits 3-7 cpu
//	    addr: unsigned varint of the XOR with the previous record's
//	          address on the same CPU (delta-ish coding; traces are
//	          local, so most varints are short)
//
// The format is streaming-friendly: Writer emits records as they come and
// back-patches nothing (count is written up front by WriteTrace, or
// 0xFFFF... for open-ended streams terminated by EOF).

const (
	binaryMagic   = "SWCT"
	binaryVersion = 1
	// openCount marks a stream whose record count is unknown up front;
	// the reader then reads until EOF.
	openCount = ^uint64(0)
)

// Writer streams trace records to an io.Writer in the binary format.
type Writer struct {
	w    *bufio.Writer
	prev [256]uint64
	n    uint64
	err  error
}

// NewWriter writes a stream header for ncpu processors and returns a
// Writer. The stream is open-ended; the reader consumes until EOF.
func NewWriter(w io.Writer, ncpu int) (*Writer, error) {
	if ncpu < 1 || ncpu > 32 {
		return nil, fmt.Errorf("%w: ncpu %d out of [1,32]", ErrBadTrace, ncpu)
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return nil, err
	}
	header := []byte{binaryVersion, byte(ncpu)}
	if _, err := bw.Write(header); err != nil {
		return nil, err
	}
	var cnt [8]byte
	binary.LittleEndian.PutUint64(cnt[:], openCount)
	if _, err := bw.Write(cnt[:]); err != nil {
		return nil, err
	}
	return &Writer{w: bw}, nil
}

// Write appends one record.
func (w *Writer) Write(r Ref) error {
	if w.err != nil {
		return w.err
	}
	cpu := r.CPU()
	if cpu >= 32 {
		w.err = fmt.Errorf("%w: cpu %d out of range", ErrBadTrace, cpu)
		return w.err
	}
	// The header byte is the record's low byte: kind, shared flag and
	// a CPU below 32 sit in the same bits in both.
	if err := w.w.WriteByte(byte(r)); err != nil {
		w.err = err
		return err
	}
	addr := r.Addr()
	delta := addr ^ w.prev[cpu]
	w.prev[cpu] = addr
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], delta)
	if _, err := w.w.Write(buf[:n]); err != nil {
		w.err = err
		return err
	}
	w.n++
	return nil
}

// Count returns the number of records written so far.
func (w *Writer) Count() uint64 { return w.n }

// Flush drains buffered output to the underlying writer.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// WriteTrace writes a whole trace in the binary format.
func WriteTrace(w io.Writer, t *Trace) error {
	if err := t.Validate(); err != nil {
		return err
	}
	tw, err := NewWriter(w, t.NCPU)
	if err != nil {
		return err
	}
	for _, r := range t.Refs {
		if err := tw.Write(r); err != nil {
			return err
		}
	}
	return tw.Flush()
}

// Reader streams trace records from an io.Reader.
type Reader struct {
	r    *bufio.Reader
	prev [256]uint64
	// NCPU is the processor count from the stream header.
	NCPU int
	// remaining counts records left, or openCount for EOF-terminated
	// streams.
	remaining uint64
}

// NewReader parses the stream header and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	head := make([]byte, 4+2+8)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrBadTrace, err)
	}
	if string(head[:4]) != binaryMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadTrace, head[:4])
	}
	if head[4] != binaryVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadTrace, head[4])
	}
	ncpu := int(head[5])
	if ncpu < 1 || ncpu > 32 {
		return nil, fmt.Errorf("%w: ncpu %d", ErrBadTrace, ncpu)
	}
	return &Reader{
		r:         br,
		NCPU:      ncpu,
		remaining: binary.LittleEndian.Uint64(head[6:]),
	}, nil
}

// Read returns the next record, or io.EOF at end of stream.
func (r *Reader) Read() (Ref, error) {
	if r.remaining == 0 {
		return 0, io.EOF
	}
	header, err := r.r.ReadByte()
	if err != nil {
		if err == io.ErrUnexpectedEOF {
			err = io.EOF
		}
		return 0, err
	}
	delta, err := binary.ReadUvarint(r.r)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, fmt.Errorf("%w: truncated record: %v", ErrBadTrace, err)
	}
	cpu := header >> 3
	addr := r.prev[cpu] ^ delta
	r.prev[cpu] = addr
	if int(cpu) >= r.NCPU {
		return 0, fmt.Errorf("%w: cpu %d >= ncpu %d", ErrBadTrace, cpu, r.NCPU)
	}
	if addr > MaxAddr {
		return 0, fmt.Errorf("%w: address %#x above MaxAddr", ErrBadTrace, addr)
	}
	if r.remaining != openCount {
		r.remaining--
	}
	return NewRef(cpu, Kind(header&0x3), addr, header&(1<<2) != 0), nil
}

// ReadTrace reads a whole binary trace.
func ReadTrace(rd io.Reader) (*Trace, error) {
	r, err := NewReader(rd)
	if err != nil {
		return nil, err
	}
	t := &Trace{NCPU: r.NCPU}
	for {
		ref, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		t.Refs = append(t.Refs, ref)
	}
	return t, nil
}

// WriteText writes the trace in a one-record-per-line text form:
//
//	#swcc-trace ncpu=4
//	0 r 0001f300 s
//	1 i 00004000
//
// Columns: cpu, kind letter (i/r/w/f), hex address, optional "s" shared
// flag.
func WriteText(w io.Writer, t *Trace) error {
	if err := t.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "#swcc-trace ncpu=%d\n", t.NCPU); err != nil {
		return err
	}
	letters := [numKinds]byte{'i', 'r', 'w', 'f'}
	for _, r := range t.Refs {
		var err error
		if r.Shared() {
			_, err = fmt.Fprintf(bw, "%d %c %x s\n", r.CPU(), letters[r.Kind()], r.Addr())
		} else {
			_, err = fmt.Fprintf(bw, "%d %c %x\n", r.CPU(), letters[r.Kind()], r.Addr())
		}
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadText parses the text form produced by WriteText.
func ReadText(rd io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("%w: empty input", ErrBadTrace)
	}
	header := sc.Text()
	var ncpu int
	if _, err := fmt.Sscanf(header, "#swcc-trace ncpu=%d", &ncpu); err != nil {
		return nil, fmt.Errorf("%w: bad header %q", ErrBadTrace, header)
	}
	t := &Trace{NCPU: ncpu}
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 3 {
			return nil, fmt.Errorf("%w: line %d: %q", ErrBadTrace, line, text)
		}
		cpu, err := strconv.ParseUint(fields[0], 10, 8)
		if err != nil {
			return nil, fmt.Errorf("%w: line %d cpu: %v", ErrBadTrace, line, err)
		}
		var kind Kind
		switch fields[1] {
		case "i":
			kind = IFetch
		case "r":
			kind = Read
		case "w":
			kind = Write
		case "f":
			kind = Flush
		default:
			return nil, fmt.Errorf("%w: line %d kind %q", ErrBadTrace, line, fields[1])
		}
		addr, err := strconv.ParseUint(fields[2], 16, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: line %d addr: %v", ErrBadTrace, line, err)
		}
		if addr > MaxAddr {
			return nil, fmt.Errorf("%w: line %d addr %#x above MaxAddr", ErrBadTrace, line, addr)
		}
		shared := len(fields) > 3 && fields[3] == "s"
		t.Refs = append(t.Refs, NewRef(uint8(cpu), kind, addr, shared))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
