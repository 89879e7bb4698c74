module cloudiq/benchmark

go 1.23

require cloudiq v0.0.0

replace cloudiq => ../
