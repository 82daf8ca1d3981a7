package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/adler32"
	"math/bits"
	"sync"
)

// The read side of every DEFLATE (RFC 1951) stream in the data path: one
// decoder that inflates a whole stream from a byte slice into a byte
// slice. Matches are copied inside the output, so there is no window, and
// the Huffman tables are built into pooled arrays, so a decode allocates
// nothing of its own. It accepts exactly the streams compress/flate does
// (TestInflateMatchesFlate); compress/flate's writer still encodes.

// MaxDeflateRatio is the most a DEFLATE stream can expand: a 258-byte
// match costs about two bits. A size that the compressed bytes present
// could not inflate to is rejected before it sizes a buffer.
const MaxDeflateRatio = 1032

const (
	litBits, distBits, clenBits = 10, 8, 7 // primary table widths

	// A subtable of 2^d entries serves a subtree d levels deep, which a
	// complete code fills with at least d+1 symbols: the 286 literal/length
	// symbols pay for at most 47 subtables of 32 entries and one of 8, the
	// 30 distances for 3 of 128 and one of 32.
	litTableSize  = 1<<litBits + 47*32 + 8
	distTableSize = 1<<distBits + 3*128 + 32

	windowSize = 32 << 10 // how far back a match may reach
	spillSize  = windowSize + 8<<10
)

// A table entry is kind | value<<8 | extra<<4 | code length: a literal
// byte, a length or distance base and its count of extra bits, or for a
// link the subtable's offset and index width. The kind is in the top bits
// so that one comparison sorts an entry.
const (
	kindLiteral = iota << 28
	kindBase
	kindEnd
	kindInvalid // no code, or a reserved symbol
	kindLink
	valueMask = 1<<20 - 1
)

var (
	errCorrupt   = errors.New("corrupt DEFLATE stream")
	errTruncated = errors.New("truncated DEFLATE stream")
	errOverflow  = errors.New("payload decodes to more than the expected size")
)

// tables holds one block's decoding tables.
type tables struct {
	lit  [litTableSize]uint32
	dist [distTableSize]uint32
}

var (
	litEntries, distEntries [288]uint32 // per symbol, without code length
	fixed                   tables      // RFC 1951 3.2.6
	codeOrder               = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}
)

func init() {
	var lens [288]uint8
	for s := range lens {
		litEntries[s], lens[s] = uint32(s)<<8, 8
		if s >= 144 && s < 256 {
			lens[s] = 9
		} else if s >= 256 && s < 280 {
			lens[s] = 7
		}
	}
	for s, lb, db := 0, 3, 1; s < 30; s++ { // length 257+s and distance s
		le, de := max(0, (s-4)>>2), max(0, (s-2)>>1)
		litEntries[257+s] = kindBase | uint32(lb)<<8 | uint32(le)<<4
		distEntries[s] = kindBase | uint32(db)<<8 | uint32(de)<<4
		lb, db = lb+1<<le, db+1<<de
	}
	litEntries[256], litEntries[285] = kindEnd, kindBase|258<<8
	litEntries[286], litEntries[287] = kindInvalid, kindInvalid
	distEntries[30], distEntries[31] = kindInvalid, kindInvalid
	buildTable(fixed.lit[:], litBits, lens[:], litEntries[:])
	for s := range lens[:32] {
		lens[s] = 5
	}
	buildTable(fixed.dist[:], distBits, lens[:32], distEntries[:])
}

// buildTable fills table with the entries of the canonical Huffman code of
// lens: a primary table indexed by the next root bits, then subtables for
// longer codes, each as deep as the codes under its prefix. Like
// compress/flate it accepts a complete code, a single 1-bit code, or no
// code at all (every lookup in which is invalid).
func buildTable(table []uint32, root uint, lens []uint8, entries []uint32) bool {
	var count, offs [16]uint16
	maxLen, kraft := uint(0), 0
	for _, n := range lens {
		count[n]++
		maxLen = max(maxLen, uint(n))
	}
	for n := uint(1); n <= maxLen; n++ {
		kraft += int(count[n]) << (maxLen - n)
		if n > 1 {
			offs[n] = offs[n-1] + count[n-1]
		}
	}
	for i := range table[:1<<root] {
		table[i] = kindInvalid
	}
	if maxLen > 0 && kraft != 1<<maxLen && !(kraft == 1 && maxLen == 1) {
		return false
	}
	var sorted [288]uint16 // by code length, then symbol
	for s, n := range lens {
		if n != 0 {
			sorted[offs[n]] = uint16(s)
			offs[n]++
		}
	}
	code, next := uint(0), uint(1)<<root // code is most significant bit first
	sub, subBits, prefix := uint(0), uint(0), ^uint(0)
	for _, s := range sorted[:len(lens)-int(count[0])] {
		n := uint(lens[s])
		rev, e := uint(bits.Reverse16(uint16(code)))>>(16-n), entries[s]|uint32(n)
		base, width, step := uint(0), uint(1)<<root, uint(1)<<n
		if n > root {
			if p := rev & (1<<root - 1); p != prefix {
				// Deepen the new subtable until the codes left fill it.
				prefix, subBits = p, n-root
				for left := 1 << subBits; subBits+root < maxLen; subBits++ {
					if left -= int(count[subBits+root]); left <= 0 {
						break
					}
					left <<= 1
				}
				if sub, next = next, next+1<<subBits; next > uint(len(table)) {
					return false
				}
				table[p] = kindLink | uint32(sub)<<8 | uint32(subBits)<<4
			}
			base, width, step, rev = sub, 1<<subBits, 1<<(n-root), rev>>root
		}
		for i := rev; i < width; i += step {
			table[base+i] = e
		}
		// One more at this length, then widen to the next length in use.
		code++
		if count[n]--; count[n] == 0 {
			for m := n + 1; m <= maxLen; m++ {
				if code <<= 1; count[m] != 0 {
					break
				}
			}
		}
	}
	return true
}

// inflater is reusable decoder state: the stream's position, a dynamic
// block's tables, and scratch that does not outlive a call.
type inflater struct {
	// Input: bits holds nbits unconsumed bits, least significant first,
	// and src[in:] is not loaded yet. Past the end of src the buffer
	// fills with zeros, and consuming any of them is an error.
	src   []byte
	in    int
	bits  uint64
	nbits uint

	// Output: out[:w] is decoded. A stream that outgrows out grows it up
	// to limit bytes or, when sliding, slides through it: base bytes were
	// decoded before out[0], and out[:done] went to dst and into sum.
	out        []byte
	w, limit   int
	sliding    bool
	dst        []byte
	base, done int
	sum        hash.Hash32

	t       tables // a dynamic block's
	clen    [1 << clenBits]uint32
	lens    [286 + 30]uint8
	scratch []byte
}

var inflaters = sync.Pool{New: func() any { return &inflater{sum: adler32.New()} }}

// getInflater returns decoder state. Pair with release.
func getInflater() *inflater { return inflaters.Get().(*inflater) }

func (f *inflater) release() {
	f.src, f.out, f.dst, f.sliding = nil, nil, nil, false // do not pin the caller's buffers
	inflaters.Put(f)
}

// inflate decodes the DEFLATE stream src into buf's capacity, growing it
// as the output needs up to limit bytes, and returns the output.
func (f *inflater) inflate(buf, src []byte, limit int) ([]byte, error) {
	f.src, f.in, f.bits, f.nbits = src, 0, 0, 0
	f.out, f.w, f.limit = buf[:min(cap(buf), limit)], 0, limit
	err := f.run()
	return f.out[:f.w], err
}

// inflateExact decodes the DEFLATE stream src into dst. It must decode to
// exactly len(dst) bytes.
func (f *inflater) inflateExact(dst, src []byte) error {
	out, err := f.inflate(dst[:0], src, len(dst))
	if errors.Is(err, errOverflow) || err == nil && len(out) != len(dst) {
		err = fmt.Errorf("payload does not decode to the expected %d bytes", len(dst))
	}
	return err
}

// InflateZlib decodes the zlib stream (RFC 1950) src into dst and returns
// how many bytes it decodes to. dst holds the first of them; a surplus is
// dropped once it has been checksummed, and a shortfall leaves the rest of
// dst as it was. A preset dictionary is an error.
func InflateZlib(dst, src []byte) (int, error) {
	if len(src) < 2 || src[0]&0x0f != 8 || src[0]>>4 > 7 || src[1]&0x20 != 0 || binary.BigEndian.Uint16(src)%31 != 0 {
		return 0, errors.New("zlib: invalid header or preset dictionary")
	}
	f := getInflater()
	defer f.release()
	out, err := f.inflate(dst[:0], src[2:], len(dst))
	n, sum := len(out), adler32.Checksum(out)
	if errors.Is(err, errOverflow) {
		// The stream holds more than dst: decode it again through
		// scratch, sliding each decoded stretch into dst and the sum.
		f.sum.Reset()
		f.scratch = grow(f.scratch, spillSize)
		f.sliding, f.dst, f.base, f.done = true, dst, 0, 0
		_, err = f.inflate(f.scratch, src[2:], spillSize)
		f.slide()
		n, sum = f.base+f.w, f.sum.Sum32()
	}
	end := 2 + (8*f.in-int(f.nbits)+7)/8
	if err == nil && (end+4 > len(src) || binary.BigEndian.Uint32(src[end:]) != sum) {
		err = errors.New("missing or invalid checksum")
	}
	if err != nil {
		return 0, fmt.Errorf("zlib: %w", err)
	}
	return n, nil
}

// run decodes the stream block by block up to the end of its final one.
func (f *inflater) run() error {
	for final := false; !final; {
		if err := f.refill(); err != nil {
			return err
		}
		final = f.take(1) == 1
		var err error
		switch f.take(2) {
		case 0:
			err = f.storedBlock()
		case 1:
			err = f.huffmanBlock(&fixed)
		case 2:
			if err = f.readTables(); err == nil {
				err = f.huffmanBlock(&f.t)
			}
		default:
			err = errCorrupt
		}
		if err != nil {
			return err
		}
	}
	return f.check()
}

// refill loads the bit buffer to at least 56 bits, past the end of src
// with zeros.
func (f *inflater) refill() error {
	if f.in+8 <= len(f.src) {
		f.bits |= binary.LittleEndian.Uint64(f.src[f.in:]) << (f.nbits & 63)
		f.in += int(63-f.nbits) >> 3
		f.nbits |= 56
		return nil
	}
	for ; f.nbits <= 56; f.nbits += 8 {
		if f.in < len(f.src) {
			f.bits |= uint64(f.src[f.in]) << f.nbits
		}
		f.in++
	}
	return f.check()
}

// check fails once any of the zeros past the end of src were consumed.
func (f *inflater) check() error {
	if 8*f.in-int(f.nbits) > 8*len(f.src) {
		return errTruncated
	}
	return nil
}

// take consumes n bits and returns them.
func (f *inflater) take(n uint) int {
	v := int(f.bits & (1<<n - 1))
	f.bits >>= n
	f.nbits -= n
	return v
}

func (f *inflater) storedBlock() error {
	f.nbits -= f.nbits & 7 // to a byte boundary
	pos := f.in - int(f.nbits/8)
	if pos+4 > len(f.src) {
		return errTruncated
	}
	n := int(binary.LittleEndian.Uint16(f.src[pos:]))
	if uint16(n) != ^binary.LittleEndian.Uint16(f.src[pos+2:]) {
		return errCorrupt
	} else if pos += 4; pos+n > len(f.src) {
		return errTruncated
	}
	data := f.src[pos : pos+n]
	f.in, f.bits, f.nbits = pos+n, 0, 0
	for len(data) > 0 {
		if err := f.room(1); err != nil {
			return err
		}
		c := copy(f.out[f.w:], data)
		f.w, data = f.w+c, data[c:]
	}
	return nil
}

// readTables reads a dynamic block's code lengths and builds its tables.
func (f *inflater) readTables() error {
	if err := f.refill(); err != nil {
		return err
	}
	nlit, ndist, nclen := f.take(5)+257, f.take(5)+1, f.take(4)+4
	if nlit > 286 || ndist > 30 {
		return errCorrupt
	}
	var clens [19]uint8
	for _, s := range codeOrder[:nclen] {
		if err := f.refill(); err != nil {
			return err
		}
		clens[s] = uint8(f.take(3))
	}
	if !buildTable(f.clen[:], clenBits, clens[:], litEntries[:19]) {
		return errCorrupt
	}
	lens := f.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		if err := f.refill(); err != nil {
			return err
		}
		e := f.clen[f.bits&(1<<clenBits-1)]
		if e >= kindInvalid {
			return errCorrupt
		}
		f.take(uint(e & 15))
		rep, val := 1, uint8(e>>8)
		switch {
		case val == 16 && i == 0:
			return errCorrupt
		case val == 16:
			rep, val = 3+f.take(2), lens[i-1]
		case val == 17:
			rep, val = 3+f.take(3), 0
		case val == 18:
			rep, val = 11+f.take(7), 0
		}
		if i+rep > len(lens) {
			return errCorrupt
		}
		for end := i + rep; i < end; i++ {
			lens[i] = val
		}
	}
	if !buildTable(f.t.lit[:], litBits, lens[:nlit], litEntries[:]) ||
		!buildTable(f.t.dist[:], distBits, lens[nlit:], distEntries[:]) {
		return errCorrupt
	}
	return nil
}

// Why fastSymbols stopped.
const (
	stopEnd = iota
	stopInput
	stopLiteral // the literal n needs room
	stopMatch   // the match of n bytes at distance d needs room or a careful copy
	stopCorrupt
)

// huffmanBlock decodes one Huffman-coded block up to and including its
// end-of-block code: fastSymbols does the work, and this loop takes each
// case it stops at.
func (f *inflater) huffmanBlock(t *tables) error {
	for {
		var err error
		switch stop, n, d := f.fastSymbols(t); stop {
		case stopEnd:
			return nil
		case stopInput:
			err = f.refill()
		case stopLiteral:
			if err = f.room(1); err == nil {
				f.out[f.w] = byte(n)
				f.w++
			}
		case stopMatch:
			// Copy the pattern, then twice it, and so on.
			if err = f.room(n); err == nil {
				for end := f.w + n; f.w < end; {
					f.w += copy(f.out[f.w:end], f.out[f.w-d:f.w])
				}
			}
		default:
			err = errCorrupt
		}
		if err != nil {
			return err
		}
	}
}

// fastSymbols decodes symbols while the input holds 8 more bytes and the
// output has room for the match and 8 bytes of slack. It calls nothing,
// so its state stays in registers; it writes the state back and stops at
// anything else. Each stop sets all three results, so none is live
// around the loop.
func (f *inflater) fastSymbols(t *tables) (stop, n, d int) {
	src, in, bitbuf, nbits := f.src, f.in, f.bits, f.nbits
	out, w := f.out, f.w
	for {
		// 48 bits cover a whole match: a 15-bit length code and 5 extra
		// bits, a 15-bit distance code and 13 extra bits.
		if nbits < 48 {
			if in+8 > len(src) {
				stop, n, d = stopInput, 0, 0
				break
			}
			bitbuf |= binary.LittleEndian.Uint64(src[in:]) << (nbits & 63)
			in += int(63-nbits) >> 3
			nbits |= 56
		}
		e := t.lit[bitbuf&(1<<litBits-1)]
		if e >= kindLink {
			e = t.lit[e>>8&valueMask+uint32(bitbuf>>litBits)&(1<<(e>>4&15)-1)]
		}
		used := uint(e & 15)
		bitbuf >>= used
		nbits -= used
		if e < kindBase {
			if uint(w) >= uint(len(out)) {
				stop, n, d = stopLiteral, int(e>>8), 0
				break
			}
			out[w] = byte(e >> 8)
			w++
			continue
		}
		if e >= kindEnd {
			stop, n, d = stopCorrupt, 0, 0
			if e < kindInvalid {
				stop = stopEnd
			}
			break
		}
		extra := e >> 4 & 15
		length := int(e>>8&valueMask) + int(bitbuf&(1<<extra-1))
		bitbuf >>= extra
		nbits -= uint(extra)

		e = t.dist[bitbuf&(1<<distBits-1)]
		if e >= kindLink {
			e = t.dist[e>>8&valueMask+uint32(bitbuf>>distBits)&(1<<(e>>4&15)-1)]
		}
		bitbuf >>= e & 15
		nbits -= uint(e & 15)
		extra = e >> 4 & 15
		dist := int(e>>8&valueMask) + int(bitbuf&(1<<extra-1))
		bitbuf >>= extra
		nbits -= uint(extra)
		if e >= kindEnd || dist > w {
			stop, n, d = stopCorrupt, 0, 0 // no such distance, or one before the output
			break
		}
		if w+length+8 > len(out) {
			stop, n, d = stopMatch, length, dist
			break
		}
		// Eight bytes at a time, each word's source written before it is
		// read; bytes past the match are overwritten later. A distance
		// under 8 starts bytewise, then copies from a whole number of
		// periods back.
		i := 0
		if dist < 8 {
			for ; i < 8; i++ {
				out[w+i] = out[w+i-dist]
			}
			dist = int(period[dist])
		}
		for ; i < length; i += 8 {
			binary.LittleEndian.PutUint64(out[w+i:], binary.LittleEndian.Uint64(out[w+i-dist:]))
		}
		w += length
	}
	f.in, f.bits, f.nbits, f.w = in, bitbuf, nbits, w
	return stop, n, d
}

// period[d] is the least multiple of d that is at least 8.
var period = [8]uint8{0, 8, 8, 9, 8, 10, 12, 14}

// room makes out[w:] at least need bytes long, need <= 258: it grows out
// up to limit, or slides it when decoding into dst through scratch.
func (f *inflater) room(need int) error {
	switch {
	case f.w+need <= len(f.out):
	case f.sliding:
		f.slide()
		copy(f.out, f.out[f.w-windowSize:f.w])
		f.base += f.w - windowSize
		f.w, f.done = windowSize, windowSize
	case f.w+need <= f.limit:
		buf := make([]byte, min(f.limit, max(2*len(f.out), f.w+need, 4<<10)))
		copy(buf, f.out[:f.w])
		f.out = buf
	default:
		return errOverflow
	}
	return nil
}

// slide sends out[done:w] to its place in dst, as far as dst reaches, and
// into the checksum.
func (f *inflater) slide() {
	if at := f.base + f.done; at < len(f.dst) {
		copy(f.dst[at:], f.out[f.done:f.w])
	}
	f.sum.Write(f.out[f.done:f.w])
	f.done = f.w
}
