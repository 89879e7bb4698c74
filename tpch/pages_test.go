package tpch

import (
	"fmt"
	"sync"
	"testing"

	"cloudiq"
	"cloudiq/internal/buffer"
	"cloudiq/internal/column"
)

// The load the stored-bytes fence and the page-class benchmark share: the
// repository benchmark's bulk_load, at its scale factor, file split, load
// parallelism and segment size.
const (
	loadSF       = 0.02
	loadFiles    = 4
	loadParallel = 2
	loadSegRows  = 512
)

// The stored size of that load, every object its data store holds (the
// column and meta pages, compressed, and the blockmap nodes): the bytes every
// PUT and stored dollar is priced by, and the 4 KiB blocks the OCM caches
// them in. TestLoadStoredBytesFence fails if either rises; an encoder change
// that lowers them re-pins them here. Before a long match's last position
// was indexed they were 4,004,021 bytes (4,799 blocks); before the five-byte
// match key and the capped in-match insertion, 4,007,835 and 4,803.
const (
	fenceStoredBytes = 4003139
	fenceOCMBlocks   = 4799
)

// ocmBlock is the OCM's default allocation granularity.
const ocmBlock = 4096

var (
	loadOnce    sync.Once
	loadObjects map[string][]byte
	loadErr     error
)

// loadedObjects generates and loads the eight tables once per process and
// returns every object the load stored, by key.
func loadedObjects(tb testing.TB) map[string][]byte {
	tb.Helper()
	loadOnce.Do(func() { loadObjects, loadErr = load() })
	if loadErr != nil {
		tb.Fatal(loadErr)
	}
	return loadObjects
}

func load() (map[string][]byte, error) {
	input := cloudiq.NewMemObjectStore(cloudiq.ObjectStoreConfig{})
	if _, err := Generate(ctxb(), input, "tpch/", loadSF, loadFiles); err != nil {
		return nil, err
	}
	store := cloudiq.NewMemObjectStore(cloudiq.ObjectStoreConfig{})
	db, err := cloudiq.Open(ctxb(), cloudiq.Config{CacheBytes: 256 << 20})
	if err != nil {
		return nil, err
	}
	defer db.Close()
	if err := db.AttachCloudDbspace("user", store, cloudiq.CloudOptions{}); err != nil {
		return nil, err
	}
	tx := db.Begin()
	if _, err := LoadAll(ctxb(), tx, "user", input, "tpch/", loadSF, loadParallel, loadSegRows); err != nil {
		return nil, err
	}
	if err := tx.Commit(ctxb()); err != nil {
		return nil, err
	}
	db.WaitIO()
	keys, err := store.List(ctxb(), "")
	if err != nil {
		return nil, err
	}
	objects := make(map[string][]byte, len(keys))
	for _, k := range keys {
		if objects[k], err = store.Get(ctxb(), k); err != nil {
			return nil, err
		}
	}
	return objects, nil
}

// TestLoadStoredBytesFence holds the page codec to the stored size of a
// whole TPC-H load: total bytes and 4 KiB OCM blocks may not rise. A faster
// parse that gives back ratio shows here, and so does one that crosses the
// block cliff (DESIGN.md "Load path": a page a few bytes past a multiple of
// 4 KiB costs the OCM a whole block).
func TestLoadStoredBytesFence(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 20 MB of TPC-H input")
	}
	var bytes, blocks int
	for _, obj := range loadedObjects(t) {
		bytes += len(obj)
		blocks += (len(obj) + ocmBlock - 1) / ocmBlock
	}
	t.Logf("%d objects: %d stored bytes, %d OCM blocks", len(loadedObjects(t)), bytes, blocks)
	if bytes > fenceStoredBytes {
		t.Errorf("the load stores %d bytes, more than the %d recorded", bytes, fenceStoredBytes)
	}
	if blocks > fenceOCMBlocks {
		t.Errorf("the load stores %d OCM blocks, more than the %d recorded", blocks, fenceOCMBlocks)
	}
}

// pageClasses inflates the load's stored pages and sorts them into the
// classes the load compresses, by encoding: plain strings (a parse each),
// compact decimals (stored without one), n-bit ints (in this load all under
// 1 KiB, so stored without one too), and the tables' gob meta pages. A
// blockmap node is no DEFLATE stream and is left out.
func pageClasses(tb testing.TB) map[string][][]byte {
	classes := make(map[string][][]byte)
	for _, obj := range loadedObjects(tb) {
		page, err := buffer.FlateCodec{}.Decompress(obj)
		if err != nil {
			continue
		}
		class := ""
		if _, err := column.DecodeSegment(page); err != nil {
			class = "meta"
		} else {
			switch column.Encoding(page[1]) {
			case column.EncPlainString:
				class = "plain_string"
			case column.EncDecimalFloat:
				class = "compact_decimal"
			case column.EncBitPackedInt:
				class = "nbit_int"
			}
		}
		if class != "" {
			classes[class] = append(classes[class], page)
		}
	}
	return classes
}

// BenchmarkCompressPageClasses compresses the pages of a TPC-H load by
// class, each op one pass over the class's pages: the load's page mix, which
// a change to the parse or the block choice is measured on.
func BenchmarkCompressPageClasses(b *testing.B) {
	classes := pageClasses(b)
	for _, name := range []string{"plain_string", "compact_decimal", "nbit_int", "meta"} {
		pages := classes[name]
		if len(pages) == 0 {
			b.Fatalf("the load stored no %s page", name)
		}
		var in int64
		for _, p := range pages {
			in += int64(len(p))
		}
		b.Run(fmt.Sprintf("%s/%d_pages", name, len(pages)), func(b *testing.B) {
			b.SetBytes(in)
			b.ReportAllocs()
			var out int
			for i := 0; i < b.N; i++ {
				out = 0
				for _, p := range pages {
					out += len(buffer.FlateCodec{}.Compress(p))
				}
			}
			b.ReportMetric(float64(out)/float64(in), "stored/in")
		})
	}
}
