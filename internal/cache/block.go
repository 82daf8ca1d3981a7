package cache

// Block is an immutable block payload. The cache hands the same Block
// to every concurrent reader of a key, so a cache hit copies nothing.
// Its lifetime is the garbage collector's: a reader may keep a Block
// for as long as it likes, across eviction, Remove and Clear, and owes
// the cache nothing when it is done (see DESIGN.md §11). Bytes returns
// shared storage that nobody — reader, filler or cache — may write to.
type Block struct {
	data []byte
}

// NewBlock wraps data in a Block. The Block adopts data: the caller
// must not write to it afterwards.
func NewBlock(data []byte) *Block { return &Block{data: data} }

// Bytes returns the payload: read-only memory shared with every other
// holder of the Block.
func (b *Block) Bytes() []byte { return b.data }

// Len returns the payload length.
func (b *Block) Len() int { return len(b.data) }
