package s3stub

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func newStub(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New("hcoc")
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func doReq(t *testing.T, method, url string, body string, hdr map[string]string) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestObjectRoundTrip(t *testing.T) {
	s, ts := newStub(t)

	put := doReq(t, http.MethodPut, ts.URL+"/hcoc/a/b.bin", "hello world", nil)
	if put.StatusCode != http.StatusOK {
		t.Fatalf("PUT = %d", put.StatusCode)
	}
	etag := put.Header.Get("ETag")
	if etag == "" {
		t.Fatal("PUT returned no ETag")
	}

	get := doReq(t, http.MethodGet, ts.URL+"/hcoc/a/b.bin", "", nil)
	body, _ := io.ReadAll(get.Body)
	if get.StatusCode != http.StatusOK || string(body) != "hello world" {
		t.Fatalf("GET = %d %q", get.StatusCode, body)
	}
	if got := get.Header.Get("ETag"); got != etag {
		t.Fatalf("GET ETag = %q, want %q", got, etag)
	}
	if get.Header.Get("Last-Modified") == "" || get.Header.Get("Accept-Ranges") != "bytes" {
		t.Fatalf("missing download headers: %v", get.Header)
	}

	head := doReq(t, http.MethodHead, ts.URL+"/hcoc/a/b.bin", "", nil)
	if head.StatusCode != http.StatusOK || head.Header.Get("Content-Length") != "11" {
		t.Fatalf("HEAD = %d Content-Length %q", head.StatusCode, head.Header.Get("Content-Length"))
	}

	// HEADs don't count as gets; the PUT and GET above do.
	if puts, gets := s.Stats(); puts != 1 || gets != 1 {
		t.Fatalf("Stats = %d puts, %d gets; want 1, 1", puts, gets)
	}

	del := doReq(t, http.MethodDelete, ts.URL+"/hcoc/a/b.bin", "", nil)
	if del.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE = %d", del.StatusCode)
	}
	if again := doReq(t, http.MethodGet, ts.URL+"/hcoc/a/b.bin", "", nil); again.StatusCode != http.StatusNotFound {
		t.Fatalf("GET after DELETE = %d", again.StatusCode)
	}
}

func TestRangeRequests(t *testing.T) {
	_, ts := newStub(t)
	doReq(t, http.MethodPut, ts.URL+"/hcoc/obj", "0123456789", nil)

	cases := []struct {
		spec   string
		status int
		body   string
		crange string
	}{
		{"bytes=2-5", http.StatusPartialContent, "2345", "bytes 2-5/10"},
		{"bytes=7-", http.StatusPartialContent, "789", "bytes 7-9/10"},
		{"bytes=-3", http.StatusPartialContent, "789", "bytes 7-9/10"},
		{"bytes=0-99", http.StatusPartialContent, "0123456789", "bytes 0-9/10"},
		{"bytes=10-", http.StatusRequestedRangeNotSatisfiable, "", "bytes */10"},
		{"bytes=5-2", http.StatusRequestedRangeNotSatisfiable, "", "bytes */10"},
		{"bytes=-", http.StatusRequestedRangeNotSatisfiable, "", "bytes */10"},
		{"bytes=0-2,5-7", http.StatusRequestedRangeNotSatisfiable, "", "bytes */10"},
		{"items=0-2", http.StatusRequestedRangeNotSatisfiable, "", "bytes */10"},
	}
	for _, tc := range cases {
		resp := doReq(t, http.MethodGet, ts.URL+"/hcoc/obj", "", map[string]string{"Range": tc.spec})
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != tc.status || string(body) != tc.body {
			t.Errorf("Range %q = %d %q, want %d %q", tc.spec, resp.StatusCode, body, tc.status, tc.body)
		}
		if got := resp.Header.Get("Content-Range"); got != tc.crange {
			t.Errorf("Range %q Content-Range = %q, want %q", tc.spec, got, tc.crange)
		}
	}
}

func TestListObjectsV2(t *testing.T) {
	_, ts := newStub(t)
	for i := 0; i < 5; i++ {
		doReq(t, http.MethodPut, fmt.Sprintf("%s/hcoc/pfx/%03d", ts.URL, i), "x", nil)
	}
	doReq(t, http.MethodPut, ts.URL+"/hcoc/other/0", "x", nil)

	if resp := doReq(t, http.MethodGet, ts.URL+"/hcoc", "", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("list without list-type=2 = %d", resp.StatusCode)
	}

	// Paginate the prefix two keys at a time; the other/ key never shows.
	var keys []string
	token := ""
	for page := 0; ; page++ {
		url := ts.URL + "/hcoc?list-type=2&prefix=pfx/&max-keys=2"
		if token != "" {
			url += "&continuation-token=" + token
		}
		resp := doReq(t, http.MethodGet, url, "", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("list page %d = %d", page, resp.StatusCode)
		}
		doc, _ := io.ReadAll(resp.Body)
		for _, part := range strings.Split(string(doc), "<Key>")[1:] {
			keys = append(keys, part[:strings.Index(part, "</Key>")])
		}
		if !strings.Contains(string(doc), "<IsTruncated>true</IsTruncated>") {
			break
		}
		start := strings.Index(string(doc), "<NextContinuationToken>")
		if start < 0 {
			t.Fatal("truncated listing without continuation token")
		}
		rest := string(doc)[start+len("<NextContinuationToken>"):]
		token = rest[:strings.Index(rest, "</NextContinuationToken>")]
		if page > 5 {
			t.Fatal("pagination never terminated")
		}
	}
	want := []string{"pfx/000", "pfx/001", "pfx/002", "pfx/003", "pfx/004"}
	if fmt.Sprint(keys) != fmt.Sprint(want) {
		t.Fatalf("paginated keys = %v, want %v", keys, want)
	}
}

func TestErrors(t *testing.T) {
	_, ts := newStub(t)

	cases := []struct {
		method, path string
		status       int
	}{
		{http.MethodGet, "/", http.StatusBadRequest},                 // no bucket
		{http.MethodGet, "/nope/key", http.StatusNotFound},           // NoSuchBucket
		{http.MethodGet, "/hcoc/nope", http.StatusNotFound},          // NoSuchKey
		{http.MethodPut, "/hcoc", http.StatusMethodNotAllowed},       // bucket create
		{http.MethodPatch, "/hcoc/key", http.StatusMethodNotAllowed}, // bad method
	}
	for _, tc := range cases {
		resp := doReq(t, tc.method, ts.URL+tc.path, "", nil)
		if resp.StatusCode != tc.status {
			t.Errorf("%s %s = %d, want %d", tc.method, tc.path, resp.StatusCode, tc.status)
		}
	}

	// S3-style errors carry an XML error document.
	resp := doReq(t, http.MethodGet, ts.URL+"/nope/key", "", nil)
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "<Code>NoSuchBucket</Code>") {
		t.Fatalf("error body = %q", body)
	}
}

// TestConditionalCreate: a PUT with If-None-Match: * creates an absent
// key and is refused with 412 once the key exists; a plain PUT still
// overwrites.
func TestConditionalCreate(t *testing.T) {
	_, ts := newStub(t)
	url := ts.URL + "/hcoc/events/log/1.json"
	create := map[string]string{"If-None-Match": "*"}
	if got := doReq(t, http.MethodPut, url, "first", create).StatusCode; got != http.StatusOK {
		t.Fatalf("conditional create of an absent key = %d, want 200", got)
	}
	if got := doReq(t, http.MethodPut, url, "second", create).StatusCode; got != http.StatusPreconditionFailed {
		t.Fatalf("conditional create of an existing key = %d, want 412", got)
	}
	body, _ := io.ReadAll(doReq(t, http.MethodGet, url, "", nil).Body)
	if string(body) != "first" {
		t.Fatalf("key holds %q after a refused create, want %q", body, "first")
	}
	if got := doReq(t, http.MethodPut, url, "third", nil).StatusCode; got != http.StatusOK {
		t.Fatalf("plain PUT over an existing key = %d, want 200", got)
	}
}
