package cypher

// StreamEquivCorpus hands the streaming-equivalence read corpus to the
// external tests of this package (staycold_test.go).
var StreamEquivCorpus = streamEquivCorpus
