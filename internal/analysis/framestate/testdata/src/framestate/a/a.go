// Package a exercises the framestate analyzer over a miniature frame
// codec shaped like the proc backend's: dec/enc types, f* frame
// constants, an await-style stale filter and a dispatch switch.
package a

import (
	"encoding/binary"
	"fmt"
)

const (
	fHello byte = 1
	fReq   byte = 2
	fRes   byte = 3
)

type enc struct{ b []byte }

func (e *enc) reset(t byte) { e.b = append(e.b[:0], 0, 0, 0, 0, t) }
func (e *enc) u8(v byte)    { e.b = append(e.b, v) }
func (e *enc) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) i64(v int64)  { e.b = binary.LittleEndian.AppendUint64(e.b, uint64(v)) }
func (e *enc) finish() []byte {
	binary.LittleEndian.PutUint32(e.b[:4], uint32(len(e.b)-4))
	return e.b
}

type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) u8() byte {
	if d.err != nil || d.off+1 > len(d.b) {
		d.err = fmt.Errorf("truncated")
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *dec) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.b) {
		d.err = fmt.Errorf("truncated")
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *dec) i64() int64 {
	if d.err != nil || d.off+8 > len(d.b) {
		d.err = fmt.Errorf("truncated")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return int64(v)
}

// encodeRes is the canonical fRes encoder: type, phase, attempt, value.
func encodeRes(phase, attempt uint32, v int64) []byte {
	var e enc
	e.reset(fRes)
	e.u32(phase)
	e.u32(attempt)
	e.i64(v)
	return e.finish()
}

// await is the stale-response filter: both header u32s guarded.
func await(frames chan []byte, want byte, phase, attempt uint32) []byte {
	for p := range frames {
		if len(p) < 9 || p[0] != want {
			continue
		}
		d := dec{b: p, off: 1}
		if d.u32() != phase || d.u32() != attempt {
			continue
		}
		return p
	}
	return nil
}

func mergeGood(frames chan []byte, phase, attempt uint32) int64 {
	p := await(frames, fRes, phase, attempt)
	d := dec{b: p, off: 9}
	return d.i64()
}

func mergeUnfiltered(frames chan []byte) int64 {
	p := <-frames
	d := dec{b: p, off: 9} // want `did not come from a stale-response filter`
	return d.i64()
}

func magicOffset(p []byte) uint32 {
	d := dec{b: p, off: 5} // want `magic header offset 5`
	return d.u32()
}

func deepWithoutHeader(p []byte) int64 {
	d := dec{b: p, off: 1} // want `without first consuming the phase and attempt`
	return d.i64()
}

func decodeResWrong(frames chan []byte, phase, attempt uint32) uint32 {
	p := await(frames, fRes, phase, attempt)
	d := dec{b: p, off: 9} // want `frame fRes layout mismatch`
	return d.u32()
}

func encodeReq(phase, attempt uint32, n byte) []byte {
	var e enc
	e.reset(fReq)
	e.u32(phase)
	e.u32(attempt)
	e.u8(n)
	e.i64(42)
	return e.finish()
}

func encodeHello(rank uint32) []byte {
	var e enc
	e.reset(fHello)
	e.u8(1)
	e.u32(rank)
	return e.finish()
}

// encodeHelloEach starts frames inside a loop body; the layout check
// reaches it all the same.
func encodeHelloEach(encs []enc, rank uint32) {
	for i := range encs {
		e := &encs[i]
		e.reset(fHello) // want `encoders disagree`
		e.u32(rank)
	}
}

func serve(payload []byte) int64 {
	switch payload[0] {
	case fReq:
		return handleReq(payload)
	case fHello:
		return handleHello(payload)
	}
	return 0
}

// handleReq echoes the header discipline: phase and attempt first.
func handleReq(payload []byte) int64 {
	d := dec{b: payload, off: 1}
	phase := d.u32()
	attempt := d.u32()
	n := d.u8()
	v := d.i64()
	_, _, _ = phase, attempt, n
	return v
}

// handleHello reads a u32 where the encoder wrote a u8 first.
func handleHello(payload []byte) int64 {
	d := dec{b: payload, off: 1} // want `frame fHello layout mismatch`
	rank := d.u32()
	_ = rank
	return 0
}

// encodeResAgain disagrees with encodeRes about fRes's layout.
func encodeResAgain(phase uint32) []byte {
	var e enc
	e.reset(fRes) // want `encoders disagree`
	e.u32(phase)
	e.u8(9)
	return e.finish()
}

func allowlisted(frames chan []byte) int64 {
	p := <-frames
	//lint:framestate-ok fixture: frames pre-filtered by the harness feeding this channel
	d := dec{b: p, off: 9}
	return d.i64()
}
