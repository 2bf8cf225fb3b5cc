// Package s3stub is a minimal in-memory S3-compatible server for tests
// and local integration runs: enough of the object API for the store's
// S3 backend — PUT/GET/HEAD/DELETE objects with Range on GET,
// conditional creates (PUT with If-None-Match: *, 412 when the key
// exists), and ListObjectsV2 with prefix, max-keys, and
// continuation-token pagination. It accepts any (or no) Authorization
// header: it stubs the wire protocol, not IAM.
package s3stub
