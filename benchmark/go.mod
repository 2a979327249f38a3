module powerlog/benchmark

go 1.22

require powerlog v0.0.0

replace powerlog => ../
