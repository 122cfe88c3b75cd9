package retrieval

// BuildChunk exposes the build's chunk size to the external tests.
const BuildChunk = buildChunk

// Parse exposes the tier decoder to the external tests.
var Parse = parse
