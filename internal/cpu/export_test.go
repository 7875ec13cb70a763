package cpu

// BlockSize exposes the event block size to the external tests.
const BlockSize = blockSize
