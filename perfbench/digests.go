package main

// digests are the SHA-256 digests of each workload's rendered CSV bytes at
// the default seed, recorded when the benchmark was defined. A change that
// alters them changes the simulator's results. The sweep-cold digests are
// also those of the CSVs `figures -fig 6 -quick -seed 1 -csv DIR` writes.
var digests = map[string]string{
	"sweep-cold/uniform":   "1760600c028f9c831b6e0f051748aed62b89750e036af03111d9ceb7115e9b7f",
	"sweep-cold/transpose": "8f6e624b1d7f75252e9bf137fec63864de1749dc55a744b80022ac6c04b9487e",
	"sweep-cold/neighbor":  "503ea16102699816f226de244f793482bb32f217a93c19b39d08c1913ddfd5ee",
	"sweep-cold/butterfly": "403b06610b250bba9bca0dd8e76552ca268f0b3f653c9b0d37d85e276e503e2a",
	"fleet-apps/study":     "d04c96254645ca7a8101bcfc653741dfb7989c3806664036dae274af9e7b44ff",
	"fleet-apps/inference": "11371ae78c05f576bc2707835b7b2ba0d1627f911599ae0ebba8bd5b7a07c3fe",
	"serve-mixed/reads":    "f162c0f53a85e57291f9bbfc6eedbdb15aa74f2ea9b995d84becdb9cfad719ce",
}
