package s3stub

import (
	"encoding/xml"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// object is one stored blob.
type object struct {
	data    []byte
	modTime time.Time
	etag    string
}

// Server is an in-memory S3-alike. Use it as an http.Handler (wrap in
// httptest.NewServer, or mount on a net/http listener for CLI runs).
// The zero value is not usable; call New.
type Server struct {
	mu      sync.Mutex
	buckets map[string]map[string]object
	puts    int
	gets    int
}

// New returns an empty stub with the given buckets pre-created.
// Requests against other buckets 404, matching a real endpoint with no
// auto-create.
func New(buckets ...string) *Server {
	s := &Server{buckets: make(map[string]map[string]object)}
	for _, b := range buckets {
		s.buckets[b] = make(map[string]object)
	}
	return s
}

// Stats returns cumulative successful object PUT and GET counts —
// integration tests use them to prove byte copies were or weren't made.
func (s *Server) Stats() (puts, gets int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.puts, s.gets
}

// ServeHTTP implements http.Handler over path-style requests:
// /<bucket>/<key...> for objects, /<bucket>?list-type=2 for listings.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	bucket, key, ok := strings.Cut(strings.TrimPrefix(r.URL.Path, "/"), "/")
	if bucket == "" {
		http.Error(w, "missing bucket", http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	objs, bucketOK := s.buckets[bucket]
	s.mu.Unlock()
	if !bucketOK {
		writeS3Error(w, http.StatusNotFound, "NoSuchBucket", bucket)
		return
	}
	if !ok || key == "" {
		if r.Method == http.MethodGet {
			s.handleList(w, r, objs)
			return
		}
		http.Error(w, "bucket operations not supported", http.StatusMethodNotAllowed)
		return
	}
	switch r.Method {
	case http.MethodPut:
		s.handlePut(w, r, objs, key)
	case http.MethodGet, http.MethodHead:
		s.handleGet(w, r, objs, key)
	case http.MethodDelete:
		s.handleDelete(w, objs, key)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (s *Server) handlePut(w http.ResponseWriter, r *http.Request, objs map[string]object, key string) {
	data := make([]byte, 0, r.ContentLength)
	buf := make([]byte, 32<<10)
	for {
		n, err := r.Body.Read(buf)
		data = append(data, buf[:n]...)
		if err != nil {
			break
		}
	}
	etag := fmt.Sprintf("%q", strconv.Itoa(len(data))+"-"+strconv.FormatInt(time.Now().UnixNano(), 36))
	s.mu.Lock()
	// A conditional create (If-None-Match: *) loses to any existing
	// object; the check and the write share the lock, so of several
	// racing creates exactly one wins.
	if _, exists := objs[key]; exists && r.Header.Get("If-None-Match") == "*" {
		s.mu.Unlock()
		writeS3Error(w, http.StatusPreconditionFailed, "PreconditionFailed", key)
		return
	}
	objs[key] = object{data: data, modTime: time.Now().UTC().Truncate(time.Second), etag: etag}
	s.puts++
	s.mu.Unlock()
	w.Header().Set("ETag", etag)
	w.WriteHeader(http.StatusOK)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request, objs map[string]object, key string) {
	s.mu.Lock()
	obj, ok := objs[key]
	if ok && r.Method == http.MethodGet {
		s.gets++
	}
	s.mu.Unlock()
	if !ok {
		writeS3Error(w, http.StatusNotFound, "NoSuchKey", key)
		return
	}
	w.Header().Set("ETag", obj.etag)
	w.Header().Set("Last-Modified", obj.modTime.Format(http.TimeFormat))
	w.Header().Set("Accept-Ranges", "bytes")
	w.Header().Set("Content-Type", "application/octet-stream")

	data := obj.data
	status := http.StatusOK
	if rng := r.Header.Get("Range"); rng != "" && r.Method == http.MethodGet {
		start, end, ok := parseRange(rng, int64(len(data)))
		if !ok {
			w.Header().Set("Content-Range", fmt.Sprintf("bytes */%d", len(data)))
			w.WriteHeader(http.StatusRequestedRangeNotSatisfiable)
			return
		}
		w.Header().Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", start, end, len(data)))
		data = data[start : end+1]
		status = http.StatusPartialContent
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.WriteHeader(status)
	if r.Method == http.MethodGet {
		w.Write(data)
	}
}

func (s *Server) handleDelete(w http.ResponseWriter, objs map[string]object, key string) {
	s.mu.Lock()
	delete(objs, key)
	s.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

// listResult is the ListObjectsV2 response document.
type listResult struct {
	XMLName               xml.Name      `xml:"ListBucketResult"`
	IsTruncated           bool          `xml:"IsTruncated"`
	NextContinuationToken string        `xml:"NextContinuationToken,omitempty"`
	Contents              []listContent `xml:"Contents"`
}

type listContent struct {
	Key          string `xml:"Key"`
	Size         int64  `xml:"Size"`
	LastModified string `xml:"LastModified"`
	ETag         string `xml:"ETag"`
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request, objs map[string]object) {
	q := r.URL.Query()
	if q.Get("list-type") != "2" {
		http.Error(w, "only ListObjectsV2 is supported", http.StatusBadRequest)
		return
	}
	prefix := q.Get("prefix")
	maxKeys := 1000
	if mk := q.Get("max-keys"); mk != "" {
		if n, err := strconv.Atoi(mk); err == nil && n > 0 {
			maxKeys = n
		}
	}
	after := q.Get("continuation-token") // stub tokens are plain "start after this key"

	s.mu.Lock()
	keys := make([]string, 0, len(objs))
	for k := range objs {
		if strings.HasPrefix(k, prefix) && k > after {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	res := listResult{}
	for i, k := range keys {
		if i >= maxKeys {
			res.IsTruncated = true
			res.NextContinuationToken = keys[i-1]
			break
		}
		obj := objs[k]
		res.Contents = append(res.Contents, listContent{
			Key:          k,
			Size:         int64(len(obj.data)),
			LastModified: obj.modTime.Format(time.RFC3339),
			ETag:         obj.etag,
		})
	}
	s.mu.Unlock()

	w.Header().Set("Content-Type", "application/xml")
	w.Write([]byte(xml.Header))
	xml.NewEncoder(w).Encode(res)
}

// parseRange parses a single "bytes=a-b" / "bytes=a-" / "bytes=-n"
// range against size, returning inclusive bounds. Multi-range and
// malformed specs report !ok (→ 416).
func parseRange(spec string, size int64) (start, end int64, ok bool) {
	spec, found := strings.CutPrefix(spec, "bytes=")
	if !found || strings.Contains(spec, ",") {
		return 0, 0, false
	}
	a, b, found := strings.Cut(spec, "-")
	if !found {
		return 0, 0, false
	}
	switch {
	case a == "" && b == "": // "bytes=-"
		return 0, 0, false
	case a == "": // suffix: last n bytes
		n, err := strconv.ParseInt(b, 10, 64)
		if err != nil || n <= 0 {
			return 0, 0, false
		}
		if n > size {
			n = size
		}
		return size - n, size - 1, size > 0
	default:
		start, err := strconv.ParseInt(a, 10, 64)
		if err != nil || start < 0 || start >= size {
			return 0, 0, false
		}
		end := size - 1
		if b != "" {
			e, err := strconv.ParseInt(b, 10, 64)
			if err != nil || e < start {
				return 0, 0, false
			}
			if e < end {
				end = e
			}
		}
		return start, end, true
	}
}

func writeS3Error(w http.ResponseWriter, status int, code, resource string) {
	w.Header().Set("Content-Type", "application/xml")
	w.WriteHeader(status)
	fmt.Fprintf(w, "<Error><Code>%s</Code><Resource>%s</Resource></Error>", code, resource)
}
