package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestReplyHeadersAndBody pins a tenant reply byte for byte: the
// Content-Type the handler names is the one net/http's sniffing yields
// for the same body, and the body is the servlet's deterministic reply.
func TestReplyHeadersAndBody(t *testing.T) {
	s, _, base := startServer(t, core.Config{}, Config{}, []TenantConfig{{Route: "/t0", WorkUnits: 10}})
	defer s.Close()
	resp, err := http.Post(base+"/t0", "text/plain", strings.NewReader("hello"))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	const want = "t0 result=5368545\n"
	if resp.StatusCode != http.StatusOK || string(body) != want {
		t.Fatalf("reply = %d %q, want 200 %q", resp.StatusCode, body, want)
	}
	ct := resp.Header.Get("Content-Type")
	if sniffed := http.DetectContentType(body); ct != sniffed || ct != "text/plain; charset=utf-8" {
		t.Fatalf("Content-Type = %q, sniffing yields %q", ct, sniffed)
	}
}

// TestReadBody covers the three ways a body arrives: too large (413 over
// the socket, declared or chunked), chunked within the cap (served like
// the same body with a declared length), and declared — read into one
// exact-size buffer.
func TestReadBody(t *testing.T) {
	s, _, base := startServer(t, core.Config{}, Config{}, []TenantConfig{{Route: "/t0", WorkUnits: 10}})
	defer s.Close()
	post := func(body io.Reader) (int, string) {
		t.Helper()
		resp, err := http.Post(base+"/t0", "text/plain", body)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}
	// chunked hides the length, so the client sends the body chunked.
	chunked := func(b []byte) io.Reader { return io.MultiReader(bytes.NewReader(b)) }

	over := bytes.Repeat([]byte{'x'}, maxBody+1)
	for name, r := range map[string]io.Reader{"declared": bytes.NewReader(over), "chunked": chunked(over)} {
		if status, _ := post(r); status != http.StatusRequestEntityTooLarge {
			t.Errorf("%s oversize body: status %d, want 413", name, status)
		}
	}

	small := bytes.Repeat([]byte("kaffeos "), 512)
	status, want := post(bytes.NewReader(small))
	if status != http.StatusOK {
		t.Fatalf("declared body: status %d %q", status, want)
	}
	if status, got := post(chunked(small)); status != http.StatusOK || got != want {
		t.Errorf("chunked body: %d %q, want 200 %q", status, got, want)
	}

	data := bytes.Repeat([]byte{'k'}, 16<<10)
	rd := bytes.NewReader(data)
	req := httptest.NewRequest(http.MethodPost, "/t0", nil)
	req.Body, req.ContentLength = io.NopCloser(rd), int64(len(data))
	w := httptest.NewRecorder()
	var got []byte
	var err error
	allocs := testing.AllocsPerRun(10, func() {
		rd.Reset(data)
		if got, err = readBody(w, req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 || !bytes.Equal(got, data) || cap(got) != len(data) {
		t.Errorf("16 KiB declared body: %v allocations, len %d cap %d; want 1, %d, %d", allocs, len(got), cap(got), len(data), len(data))
	}
}
