package compress

import (
	"encoding/binary"
	"fmt"
	"math"
)

// LZ4 is a from-scratch LZ77 byte codec in the style of the LZ4 block
// format: a greedy hash-chain match finder and a token stream of
// (literal-run, match) pairs with 16-bit offsets. It favours speed over
// ratio, mirroring the role LZ4 plays among the codecs the IDX format
// supports.
//
// The block layout is LZ4-inspired but not wire-compatible with reference
// LZ4 (this repository is stdlib-only): each sequence is
//
//	token byte:  high nibble = literal length (15 = extended),
//	             low nibble  = match length - 4 (15 = extended)
//	[extended literal length bytes, 255-terminated run]
//	literal bytes
//	2-byte little-endian match offset (1..65535)
//	[extended match length bytes]
//
// The final sequence carries only literals and no offset.
type LZ4 struct{}

// Name implements Codec.
func (LZ4) Name() string { return "lz4" }

const (
	lz4MinMatch   = 4
	lz4HashLog    = 14
	lz4MaxOffset  = 65535
	lz4LastLits   = 5 // spec-style: last bytes must be literals
	lz4TokenLitEx = 15
	lz4TokenMatEx = 15
)

func lz4Hash(v uint32) uint32 {
	return (v * 2654435761) >> (32 - lz4HashLog)
}

// Encode implements Codec.
func (LZ4) Encode(src []byte) ([]byte, error) {
	out := make([]byte, 0, len(src)/2+16)
	n := len(src)
	if n < lz4MinMatch+lz4LastLits {
		return lz4EmitLast(out, src), nil
	}
	var table [1 << lz4HashLog]int32
	for i := range table {
		table[i] = -1
	}
	anchor := 0 // start of pending literals
	i := 0
	limit := n - lz4LastLits
	for i < limit {
		seq := binary.LittleEndian.Uint32(src[i:])
		h := lz4Hash(seq)
		cand := int(table[h])
		table[h] = int32(i)
		if cand < 0 || i-cand > lz4MaxOffset || binary.LittleEndian.Uint32(src[cand:]) != seq {
			i++
			continue
		}
		// Extend the match forward.
		mlen := lz4MinMatch
		for i+mlen < limit && src[cand+mlen] == src[i+mlen] {
			mlen++
		}
		// Extend backwards into pending literals.
		for i > anchor && cand > 0 && src[i-1] == src[cand-1] {
			i--
			cand--
			mlen++
		}
		out = lz4EmitSequence(out, src[anchor:i], i-cand, mlen)
		i += mlen
		anchor = i
	}
	return lz4EmitLast(out, src[anchor:]), nil
}

func lz4EmitSequence(out, lits []byte, offset, mlen int) []byte {
	litLen := len(lits)
	matToken := mlen - lz4MinMatch
	token := byte(0)
	if litLen >= lz4TokenLitEx {
		token = lz4TokenLitEx << 4
	} else {
		token = byte(litLen) << 4
	}
	if matToken >= lz4TokenMatEx {
		token |= lz4TokenMatEx
	} else {
		token |= byte(matToken)
	}
	out = append(out, token)
	if litLen >= lz4TokenLitEx {
		out = lz4EmitLen(out, litLen-lz4TokenLitEx)
	}
	out = append(out, lits...)
	out = append(out, byte(offset), byte(offset>>8))
	if matToken >= lz4TokenMatEx {
		out = lz4EmitLen(out, matToken-lz4TokenMatEx)
	}
	return out
}

// lz4EmitLast writes the trailing literal-only sequence.
func lz4EmitLast(out, lits []byte) []byte {
	litLen := len(lits)
	token := byte(0)
	if litLen >= lz4TokenLitEx {
		token = lz4TokenLitEx << 4
	} else {
		token = byte(litLen) << 4
	}
	out = append(out, token)
	if litLen >= lz4TokenLitEx {
		out = lz4EmitLen(out, litLen-lz4TokenLitEx)
	}
	return append(out, lits...)
}

func lz4EmitLen(out []byte, v int) []byte {
	for v >= 255 {
		out = append(out, 255)
		v -= 255
	}
	return append(out, byte(v))
}

// Decode implements Codec.
func (LZ4) Decode(src []byte, dstSize int) ([]byte, error) {
	capHint := dstSize
	if capHint < 0 {
		capHint = len(src) * 3
	}
	out := make([]byte, 0, capHint)
	// A sequence that would take the output past a declared size is
	// refused before it is copied, so a hostile block cannot grow the
	// buffer beyond what the caller sized.
	limit := dstSize
	if limit < 0 {
		limit = math.MaxInt
	}
	i := 0
	for i < len(src) {
		token := src[i]
		i++
		litLen := int(token >> 4)
		if litLen == lz4TokenLitEx {
			ext, n, err := lz4ReadLen(src[i:])
			if err != nil {
				return nil, fmt.Errorf("compress: lz4: literal length: %w", err)
			}
			litLen += ext
			i += n
		}
		if i+litLen > len(src) {
			return nil, fmt.Errorf("compress: lz4: literal run of %d bytes overruns input", litLen)
		}
		if litLen > limit-len(out) {
			return nil, fmt.Errorf("compress: lz4 payload decodes to more than the expected %d bytes", dstSize)
		}
		out = append(out, src[i:i+litLen]...)
		i += litLen
		if i == len(src) {
			break // final literal-only sequence
		}
		if i+2 > len(src) {
			return nil, fmt.Errorf("compress: lz4: truncated match offset")
		}
		offset := int(src[i]) | int(src[i+1])<<8
		i += 2
		if offset == 0 || offset > len(out) {
			return nil, fmt.Errorf("compress: lz4: match offset %d outside window of %d bytes", offset, len(out))
		}
		mlen := int(token&0x0F) + lz4MinMatch
		if token&0x0F == lz4TokenMatEx {
			ext, n, err := lz4ReadLen(src[i:])
			if err != nil {
				return nil, fmt.Errorf("compress: lz4: match length: %w", err)
			}
			mlen += ext
			i += n
		}
		if mlen > limit-len(out) {
			return nil, fmt.Errorf("compress: lz4 payload decodes to more than the expected %d bytes", dstSize)
		}
		// Byte-at-a-time copy: matches may overlap their own output.
		pos := len(out) - offset
		for k := 0; k < mlen; k++ {
			out = append(out, out[pos+k])
		}
	}
	if dstSize >= 0 && len(out) != dstSize {
		return nil, fmt.Errorf("compress: lz4 payload decoded to %d bytes, expected %d", len(out), dstSize)
	}
	return out, nil
}

func lz4ReadLen(src []byte) (v, n int, err error) {
	for {
		if n >= len(src) {
			return 0, 0, fmt.Errorf("unterminated length run")
		}
		b := src[n]
		n++
		v += int(b)
		if b != 255 {
			return v, n, nil
		}
	}
}
