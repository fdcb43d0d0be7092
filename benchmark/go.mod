module auditreg/benchmark

go 1.24

require auditreg v0.0.0

replace auditreg => ../
