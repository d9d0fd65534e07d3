package blog

import (
	"fmt"
	"sort"
)

// Stats summarizes a corpus: sizes, degree distributions and comment
// activity. Used by the CLI tools and the experiment harness to report
// workload shape alongside results.
type Stats struct {
	Bloggers        int
	Posts           int
	Comments        int
	Links           int
	MaxPostsPerUser int
	MaxCommentsMade int
	MaxInLinks      int
	AvgPostLenWords float64
}

// ComputeStats scans the corpus once and returns its summary. wordCount is
// the token counter to use for post lengths (injected to keep this package
// free of text-processing dependencies).
func ComputeStats(c *Corpus, wordCount func(string) int) Stats {
	totalWords := 0
	for _, p := range c.Posts {
		totalWords += wordCount(p.Body)
	}
	return StatsWithWords(c, totalWords)
}

// StatsWithWords is ComputeStats for a caller that already knows the
// corpus's total post length in words (an analysis that tokenized every
// post), so no body is tokenized again.
func StatsWithWords(c *Corpus, totalWords int) Stats {
	s := Stats{
		Bloggers: len(c.Bloggers),
		Posts:    len(c.Posts),
		Links:    len(c.Links),
	}
	for _, p := range c.Posts {
		s.Comments += len(p.Comments)
	}
	for b := range c.Bloggers {
		if n := len(c.PostsBy(b)); n > s.MaxPostsPerUser {
			s.MaxPostsPerUser = n
		}
		if n := c.TotalComments(b); n > s.MaxCommentsMade {
			s.MaxCommentsMade = n
		}
		if n := len(c.InLinks(b)); n > s.MaxInLinks {
			s.MaxInLinks = n
		}
	}
	if s.Posts > 0 {
		s.AvgPostLenWords = float64(totalWords) / float64(s.Posts)
	}
	return s
}

// String renders the stats as a one-line summary.
func (s Stats) String() string {
	return fmt.Sprintf("bloggers=%d posts=%d comments=%d links=%d maxPosts=%d maxComments=%d maxInLinks=%d avgPostLen=%.1f",
		s.Bloggers, s.Posts, s.Comments, s.Links,
		s.MaxPostsPerUser, s.MaxCommentsMade, s.MaxInLinks, s.AvgPostLenWords)
}

// CommentEdge is an aggregated post-reply edge: Commenter left Count
// comments on posts by Author. This is exactly the edge the demo UI draws
// ("the number on the line records the total number comments of one blogger
// on the other blogger's posts", Fig 4).
type CommentEdge struct {
	Commenter BloggerID
	Author    BloggerID
	Count     int
}

// CommentEdges aggregates all comments into blogger-to-blogger edges,
// sorted by (Commenter, Author) for determinism. Self-comments are kept:
// they exist in real blogs, and downstream consumers filter if needed.
func CommentEdges(c *Corpus) []CommentEdge {
	counts := map[[2]BloggerID]int{}
	for _, p := range c.Posts {
		for _, cm := range p.Comments {
			counts[[2]BloggerID{cm.Commenter, p.Author}]++
		}
	}
	edges := make([]CommentEdge, 0, len(counts))
	for k, n := range counts {
		edges = append(edges, CommentEdge{Commenter: k[0], Author: k[1], Count: n})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].Commenter != edges[j].Commenter {
			return edges[i].Commenter < edges[j].Commenter
		}
		return edges[i].Author < edges[j].Author
	})
	return edges
}

// Neighborhood returns the set of bloggers within the given radius of seed
// in the undirected post-reply ∪ friendship ∪ hyperlink network, including
// seed itself. This implements the demo's "radius of network where the
// crawling is performed" option.
func Neighborhood(c *Corpus, seed BloggerID, radius int) map[BloggerID]int {
	dist := map[BloggerID]int{}
	if _, ok := c.Bloggers[seed]; !ok {
		return dist
	}
	adj := map[BloggerID]map[BloggerID]struct{}{}
	addEdge := func(a, b BloggerID) {
		if adj[a] == nil {
			adj[a] = map[BloggerID]struct{}{}
		}
		if adj[b] == nil {
			adj[b] = map[BloggerID]struct{}{}
		}
		adj[a][b] = struct{}{}
		adj[b][a] = struct{}{}
	}
	for _, e := range CommentEdges(c) {
		if e.Commenter != e.Author {
			addEdge(e.Commenter, e.Author)
		}
	}
	for _, l := range c.Links {
		addEdge(l.From, l.To)
	}
	for id, b := range c.Bloggers {
		for _, f := range b.Friends {
			addEdge(id, f)
		}
	}
	dist[seed] = 0
	frontier := []BloggerID{seed}
	for d := 1; d <= radius && len(frontier) > 0; d++ {
		var next []BloggerID
		for _, u := range frontier {
			for v := range adj[u] {
				if _, seen := dist[v]; !seen {
					dist[v] = d
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	return dist
}

// Subcorpus extracts the induced sub-corpus on the given blogger set:
// posts by members (comments from non-members dropped), links and
// friendships with both endpoints inside. Used to analyze a friend
// network rather than the whole blogosphere (demo §IV).
func Subcorpus(c *Corpus, members map[BloggerID]int) *Corpus {
	sub := NewCorpus()
	for id := range members {
		if b, ok := c.Bloggers[id]; ok {
			nb := *b
			nb.Friends = nil
			for _, f := range b.Friends {
				if _, in := members[f]; in {
					nb.Friends = append(nb.Friends, f)
				}
			}
			sub.Bloggers[nb.ID] = &nb
		}
	}
	for _, pid := range c.PostIDs() {
		p := c.Posts[pid]
		if _, in := members[p.Author]; !in {
			continue
		}
		np := *p
		np.Comments = nil
		for _, cm := range p.Comments {
			if _, in := members[cm.Commenter]; in {
				np.Comments = append(np.Comments, cm)
			}
		}
		sub.Posts[np.ID] = &np
	}
	for _, l := range c.Links {
		_, fromIn := members[l.From]
		_, toIn := members[l.To]
		if fromIn && toIn {
			sub.Links = append(sub.Links, l)
		}
	}
	sub.Reindex()
	return sub
}
