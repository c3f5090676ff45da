let page_size = 4096
let entries_per_table = 512
let pte_flag_bits = 4
let default_budget_bytes = Int64.mul 88L (Int64.mul 1024L (Int64.mul 1024L 1024L))

let bytes_of_pages pages = Int64.mul (Int64.of_int pages) (Int64.of_int page_size)

let mib n = n * 1024 * 1024

let page_copy_time = 0.78e-6
let zero_fill_time = 0.35e-6
