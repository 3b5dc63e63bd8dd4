package serve

// pageLen is the number of records in one copy-on-write page.
const pageLen = 1024

// paged is an append-only sequence of records held in fixed-size pages
// that published snapshots share with the writer. Publishing copies only
// the page table (share); the writer's first write to a page after that
// copies the page (at), so a publish costs the pages written since the
// last one, not the records that exist. A snapshot's copy is read-only.
type paged[T any] struct {
	pages [][]T
	n     int
	// Writer side only: owned[p] reports that page p was copied (or made)
	// since the last share, so no snapshot holds it; copied counts the
	// pages copied for a write, for the tests that pin a publish at
	// O(dirty).
	owned  []bool
	copied int
}

// len returns the number of records.
func (p *paged[T]) len() int { return p.n }

// get returns record i for reading.
func (p *paged[T]) get(i int) T { return p.pages[i/pageLen][i%pageLen] }

// at returns record i for writing, copying its page first if a snapshot
// shares it. Writer only.
func (p *paged[T]) at(i int) *T {
	k := i / pageLen
	if !p.owned[k] {
		p.pages[k] = append(make([]T, 0, pageLen), p.pages[k]...)
		p.owned[k] = true
		p.copied++
	}
	return &p.pages[k][i%pageLen]
}

// append adds v as the last record: into the tail page (copied first if
// shared) or a new page. Writer only.
func (p *paged[T]) append(v T) {
	if p.n%pageLen == 0 {
		p.pages = append(p.pages, make([]T, 0, pageLen))
		p.owned = append(p.owned, true)
	} else {
		p.at(p.n - 1)
	}
	k := len(p.pages) - 1
	p.pages[k] = append(p.pages[k], v)
	p.n++
}

// share returns a read-only copy for a snapshot and marks every page
// shared, so the writer copies a page before its next write to it.
// O(pages). Writer only.
func (p *paged[T]) share() paged[T] {
	clear(p.owned)
	return paged[T]{pages: append([][]T(nil), p.pages...), n: p.n}
}
