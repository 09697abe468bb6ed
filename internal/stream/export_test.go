package stream

// DecodeCheckpoint is LoadCheckpoint's decoding step, for tests that try
// many byte strings without writing each to a file.
var DecodeCheckpoint = decodeCheckpoint
