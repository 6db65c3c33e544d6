package proc

// ChunkCols exposes chunkCols to the external tests.
var ChunkCols = chunkCols
